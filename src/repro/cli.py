"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artifacts:

* ``fig1``   -- the three vector-op variants of Fig. 1;
* ``fig3``   -- the full 2-kernel x 5-variant evaluation of Fig. 3;
* ``claims`` -- the section III geomean claims, paper vs. measured;
* ``run``    -- a single kernel/variant with full metrics;
* ``trace``  -- the Fig. 1c / Fig. 2 issue and dataflow traces;
* ``area``   -- the area-overhead estimate;
* ``sweep``  -- run an experiment campaign (preset or spec file) through
  the parallel, cached sweep engine;
* ``audit``  -- diff a campaign against the result store: coverage
  tables, gap classification (missing/error/timeout/stale), an
  executable backfill plan (``--backfill``/``--dry-run``), and store
  verification (``--verify-store``);
* ``calibrate`` -- cross-validate the closed-form analytical model
  against a cycle-accurate engine and emit the per-kernel-family
  error-bound report (``repro-calibration/v1``);
* ``profile`` -- run one kernel/variant under cProfile and print the
  top-N hotspot tables (cumulative + tottime), so perf work starts
  from data;
* ``serve``  -- the async simulation-as-a-service job layer
  (:mod:`repro.serve`): submit workloads over HTTP, cache-first with
  in-flight dedup, durable job journal (see ``docs/serve.md``);
* ``cache``  -- result-store maintenance (``cache prune``: LRU shard
  eviction with failure-log awareness);
* ``list``   -- available kernels, variants and sweep presets.

Every command is a thin shell over :mod:`repro.api`: arguments build a
:class:`~repro.api.Workload`, a :class:`~repro.api.Session` executes
it, and all machine-readable output (``--json PATH``, ``--csv PATH``)
emits the one canonical result schema
(:meth:`repro.api.Result.to_dict`).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import signal
import sys

import repro.obs as obs
from repro.api import (
    RESULT_METRICS,
    RESULT_SCALARS,
    CancelToken,
    Session,
    make_workload,
    normalize_variant,
)
from repro.core.cluster import Cluster
from repro.core.config import ENGINES
from repro.energy.area import AreaModel
from repro.eval.figures import (
    PAPER_CLAIMS,
    PAPER_FIG3_POWER_MW,
    PAPER_FIG3_UTILIZATION,
    claims_from_results,
    fig1_data,
    fig3_data,
)
from repro.eval.report import format_table
from repro.kernels.build import MARK_START
from repro.kernels.registry import kernel_names
from repro.kernels.variants import VARIANT_ORDER
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.sweep import (
    AUDIT_AXES,
    PRESETS,
    BackfillPlan,
    ResultCache,
    SweepSpec,
    preset_points,
    speedup_vs_baseline,
    summary_rows,
)
from repro.sweep.audit import DEFAULT_RETRY_BUDGET
from repro.trace import TraceRecorder, render_dataflow, render_issue_trace

#: stdout rounding of ``repro run`` (the pre-1.5 display precision).
_RUN_DISPLAY_DIGITS = {"fpu_utilization": 4, "power_mw": 2, "gflops": 3,
                       "gflops_per_watt": 3, "cycles_per_point": 3}

#: exit status for a cancelled/interrupted campaign (128 + SIGINT).
EXIT_INTERRUPTED = 130


@contextlib.contextmanager
def _graceful_signals(token: CancelToken):
    """Drain-then-abort signal handling around a campaign.

    The first SIGINT/SIGTERM trips ``token`` so the campaign stops
    dispatching and drains in flight points (results land in the
    cache, the failure log is flushed).  A second signal escalates to
    ``KeyboardInterrupt``, which the runner answers by terminating
    pool workers outright.  Handlers are restored on exit.
    """
    def handler(signum, frame):
        if token.cancelled:  # second signal: abort now
            raise KeyboardInterrupt
        token.cancel()
        print("\ninterrupt: draining in-flight points "
              "(^C again to abort)", file=sys.stderr, flush=True)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # non-main thread / platform
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _maybe_write_json(path: str | None, payload) -> None:
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)


def _parse_grid(args) -> tuple[int, int, int] | None:
    dims = (args.nz, args.ny, args.nx)
    if all(d is None for d in dims):
        return None
    if any(d is None for d in dims):
        raise SystemExit("--nz/--ny/--nx must be given together")
    return dims


def cmd_fig1(args) -> int:
    results = fig1_data(n=args.n)
    rows = [[name, res.fpu_utilization, res.region_cycles,
             res.meta["arch_accumulators"]]
            for name, res in results.items()]
    print(format_table(
        ["variant", "fpu util", "cycles", "arch accumulators"], rows,
        title=f"Fig. 1: a = b*(c+d), n={args.n}"))
    _maybe_write_json(args.json, {name: res.to_dict()
                                  for name, res in results.items()})
    return 0


def cmd_fig3(args) -> int:
    kernels = tuple(args.kernel) if args.kernel else ("box3d1r", "j3d27pt")
    try:
        results = fig3_data(kernels=kernels)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    rows = []
    for kernel in kernels:
        for variant in VARIANT_ORDER:
            res = results[kernel, variant.label]
            paper_util = PAPER_FIG3_UTILIZATION.get(kernel, {}).get(variant)
            paper_power = PAPER_FIG3_POWER_MW.get(kernel, {}).get(variant)
            rows.append([kernel, variant.label,
                         paper_util if paper_util is not None else "-",
                         round(res.fpu_utilization, 3),
                         paper_power if paper_power is not None else "-",
                         round(res.power_mw, 1)])
    print(format_table(
        ["kernel", "variant", "util(paper)", "util(ours)",
         "mW(paper)", "mW(ours)"],
        rows, title="Fig. 3: utilization and power"))
    _maybe_write_json(args.json, {
        f"{kernel}/{label}": res.to_dict()
        for (kernel, label), res in results.items()
    })
    return 0


def cmd_claims(args) -> int:
    results = fig3_data()
    claims = claims_from_results(results).as_dict()
    rows = [[key, PAPER_CLAIMS.get(key, "-"), round(value, 2)]
            for key, value in claims.items()]
    print(format_table(["claim", "paper", "measured"], rows,
                       title="Section III claims"))
    _maybe_write_json(args.json, claims)
    return 0


def cmd_run(args) -> int:
    grid = _parse_grid(args)
    if args.num_clusters < 1:
        raise SystemExit(f"--num-clusters must be >= 1, got "
                         f"{args.num_clusters}")
    if args.iters < 1:
        raise SystemExit(f"--iters must be >= 1, got {args.iters}")
    system = {}
    if (args.num_clusters > 1 or args.iters > 1
            or args.gmem_latency is not None
            or args.gmem_banks is not None
            or args.link_bytes is not None):
        system = {"num_clusters": args.num_clusters, "iters": args.iters}
        if args.gmem_latency is not None:
            system["gmem_latency"] = args.gmem_latency
        if args.gmem_banks is not None:
            system["gmem_banks"] = args.gmem_banks
        if args.link_bytes is not None:
            system["link_bytes_per_cycle"] = args.link_bytes
    session = Session()  # backend-default cycle budgets
    try:
        work = make_workload(args.kernel, args.variant, grid=grid,
                             system=system or None)
        result = session.run(work)
    except (ValueError, AssertionError) as exc:
        raise SystemExit(str(exc)) from None
    record = result.to_dict()
    # Display rounding only; --json keeps the full-fidelity schema.
    shown = dict(record, **{k: round(record[k], d) for k, d in
                            _RUN_DISPLAY_DIGITS.items()})
    width = 30 if system else 18
    for key in RESULT_SCALARS:
        print(f"{key:{width}s} {shown[key]}")
    print(f"{'stalls':{width}s} {record['stalls']}")
    if record["system"]:
        for key, value in record["system"].items():
            print(f"{key:{width}s} {value}")
    _maybe_write_json(args.json, record)
    return 0 if result.correct else 1


def cmd_trace(args) -> int:
    variant = VecopVariant(args.variant)
    build = build_vecop(n=args.n, variant=variant, loop_mode=args.loop)
    trace = TraceRecorder()
    cluster = Cluster(build.asm, trace=trace)
    build.load_into(cluster)
    cluster.run()
    start = cluster.perf.marks[MARK_START].cycle
    print(render_issue_trace(trace, start_cycle=start,
                             max_slots=args.slots, show_int=True))
    if variant is VecopVariant.CHAINING:
        print()
        print(render_dataflow(trace, chain_reg=3, start_cycle=start,
                              max_slots=args.slots))
    if args.perfetto:
        label = f"vecop/{variant.value} n={args.n}"
        path = obs.write_trace(args.perfetto,
                               obs.recorder_events(trace, label=label))
        print(f"\nwrote Perfetto trace ({len(trace.fp_events)} fp + "
              f"{len(trace.int_events)} int events): {path}")
    return 0


def cmd_area(args) -> int:
    model = AreaModel()
    rows = [[name, kge] for name, kge in model.breakdown().items()]
    print(format_table(["component", "kGE"], rows, title="Area model"))
    print(f"chaining overhead: {model.overhead_core_percent:.2f}% of core "
          f"complex (paper: <2%)")
    _maybe_write_json(args.json, {
        "breakdown_kge": model.breakdown(),
        "overhead_core_percent": model.overhead_core_percent,
    })
    return 0


def _campaign_points(args, what: str) -> tuple[str, str, list]:
    """Resolve ``--preset``/``--spec`` into ``(name, title, points)``
    (shared by ``sweep`` and ``audit``)."""
    if bool(args.preset) == bool(args.spec):
        raise SystemExit("pass exactly one of --preset or --spec")
    if args.preset:
        try:
            description, points = preset_points(args.preset)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        name = args.preset
        title = f"{what} preset {args.preset!r} ({description})"
    else:
        try:
            spec = SweepSpec.from_file(args.spec)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"bad spec {args.spec}: {exc}") from None
        points = spec.points()
        name = spec.name
        title = f"{what} {spec.name!r} from {args.spec}"
    if not points:
        raise SystemExit("spec expands to zero points")
    return name, title, points


def cmd_sweep(args) -> int:
    if args.metric not in RESULT_METRICS:
        raise SystemExit(
            f"unknown metric {args.metric!r}; choose from: "
            f"{', '.join(sorted(RESULT_METRICS))}")
    baseline = None
    if args.baseline:
        try:
            baseline = normalize_variant(args.baseline)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    _, title, points = _campaign_points(args, "sweep")
    points = _apply_system_axes(args, points)

    session = Session(
        cache=None if args.no_cache else args.cache_dir,
        workers=args.workers, timeout=args.timeout,
        engine=args.engine)

    meter = obs.ProgressMeter(total=len(points)) if args.progress else None

    def progress(outcome, done, total):
        if meter is not None:
            meter.update(outcome, done, total)
        elif not args.quiet:
            tag = "hit" if outcome.cached else outcome.status
            print(f"[{done:3d}/{total}] {tag:7s} {outcome.point.label}"
                  + (f" ({outcome.seconds:.2f}s)" if not outcome.cached
                     else ""))

    interest = None
    if any(v is not None for v in (args.interest_top, args.interest_min,
                                   args.interest_max)):
        if args.fidelity != "triage":
            raise SystemExit(
                "--interest-top/--interest-min/--interest-max require "
                "--fidelity triage")
        interest = {"metric": args.interest_metric}
        if args.interest_top is not None:
            interest["top"] = args.interest_top
        if args.interest_min is not None:
            interest["min"] = args.interest_min
        if args.interest_max is not None:
            interest["max"] = args.interest_max

    print(f"{title}: {len(points)} points, "
          + ("cache off" if args.no_cache else f"cache {args.cache_dir}")
          + (f", fidelity {args.fidelity}" if args.fidelity else ""))
    tracer = obs.enable(jsonl_dir=args.obs_out, keep_in_memory=False) \
        if args.obs_out else None
    token = CancelToken()
    with _graceful_signals(token):
        try:
            campaign = session.map(points, progress=progress,
                                   fidelity=args.fidelity,
                                   interest=interest, cancel=token)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        finally:
            if meter is not None:
                meter.close()
            if tracer is not None:
                trace_path = obs.export_dir(args.obs_out, tracer=tracer)
                obs.disable()

    if tracer is not None:
        metrics_path = _write_obs_metrics(args.obs_out, campaign)
        print(f"wrote {trace_path} and {metrics_path}")

    print()
    print(format_table(
        ["point", "status", "fpu util", "region cycles", "mW",
         "Gflop/s/W", "cache"],
        summary_rows(campaign), title=title))

    if baseline:
        table = speedup_vs_baseline(campaign, baseline,
                                    metric=args.metric)
        if table:
            rows = [[variant, round(entry["geomean"], 4),
                     round(entry["geomean_pct"], 2), len(entry["ratios"])]
                    for variant, entry in table.items()]
            print()
            print(format_table(
                ["variant", f"geomean {args.metric} ratio", "gain %",
                 "points"],
                rows, title=f"vs. baseline {baseline!r}"))
        else:
            print(f"\nno successful points matched baseline "
                  f"{baseline!r}; skipping comparison table")

    hits = campaign.cached_count
    simulated = len(campaign) - hits
    failed = len(campaign.failed)
    cancelled = campaign.cancelled_count
    print(f"\n{len(campaign)} points: {hits} cache hits "
          f"({100.0 * campaign.hit_rate:.0f}%), {simulated} simulated, "
          f"{failed} failed, wall {campaign.seconds:.2f}s"
          + (f", {cancelled} cancelled" if cancelled else "")
          + (" [interrupted]" if campaign.interrupted else ""))
    if campaign.triage is not None:
        t = campaign.triage
        print(f"triage: {t['estimated']} estimated analytically, "
              f"{t['selected']} re-run cycle-accurately")

    _maybe_write_json(args.json, {
        "title": title,
        "points": len(campaign),
        "cache_hits": hits,
        "cached_count": campaign.cached_count,
        "hit_rate": round(campaign.hit_rate, 4),
        "ok": campaign.ok_count,
        "errors": campaign.error_count,
        "timeouts": campaign.timeout_count,
        "failed": failed,
        "seconds": round(campaign.seconds, 3),
        "fidelity": args.fidelity,
        "triage": campaign.triage,
        "summary": campaign.summary(),
        "outcomes": [o.record() for o in campaign],
    })
    if args.csv:
        _write_sweep_csv(args.csv, campaign)
    if campaign.interrupted or cancelled:
        return EXIT_INTERRUPTED
    return 0 if not failed else 1


def cmd_serve(args) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve import JobStore, ReproServer, Scheduler

    session = Session(cache=args.store, workers=args.workers,
                      timeout=args.timeout, engine=args.engine)
    job_store = JobStore(Path(args.store) / "jobs.jsonl")
    pending = job_store.replay()
    scheduler = Scheduler(session, job_store, workers=args.workers,
                          max_queue=args.max_queue)
    requeued = scheduler.resume(pending)
    server = ReproServer(
        scheduler, host=args.host, port=args.port,
        prune_interval=args.prune_interval,
        prune_max_bytes=args.prune_max_bytes,
        prune_max_age_days=args.prune_max_age_days,
        ready_file=args.ready_file)

    async def run() -> None:
        await server.start()
        print(f"serving on http://{server.host}:{server.port} "
              f"(store {args.store}, {scheduler.workers} workers"
              + (f"; journal replay: {len(pending)} job(s), "
                 f"{requeued} point(s) re-enqueued" if pending else "")
              + (f"; {job_store.skipped_records} malformed journal "
                 f"record(s) skipped" if job_store.skipped_records else "")
              + ")", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("shutting down: journaling live jobs as interrupted",
              flush=True)
        await server.stop()

    asyncio.run(run())
    return 0


def cmd_cache_prune(args) -> int:
    if args.max_bytes is None and args.max_age_days is None:
        raise SystemExit("cache prune needs --max-bytes and/or "
                         "--max-age-days")
    cache = ResultCache(args.cache_dir)
    try:
        report = cache.prune(max_bytes=args.max_bytes,
                             max_age_days=args.max_age_days,
                             dry_run=args.dry_run)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    verb = "would evict" if args.dry_run else "evicted"
    print(f"{cache.root}: {verb} {len(report['evicted_shards'])} "
          f"shard(s), {report['evicted_records']} record(s), "
          f"{report['evicted_bytes']} bytes "
          f"(dropped {report['dropped_failures']} superseded "
          f"failure record(s)); keeping {report['kept_shards']} "
          f"shard(s), {report['kept_bytes']} bytes")
    _maybe_write_json(args.json, report)
    return 0


def cmd_calibrate(args) -> int:
    from repro.analytical.calibrate import (
        DEFAULT_FLOOR,
        DEFAULT_SAFETY,
        calibrate,
    )

    points = None
    title = "calibrate: built-in cross-validation spec"
    if args.preset or args.spec:
        _, title, points = _campaign_points(args, "calibrate")
    print(f"{title} (reference engine: {args.engine})")
    report = calibrate(
        points, engine=args.engine,
        cache=None if args.no_cache else args.cache_dir,
        workers=args.workers, timeout=args.timeout,
        include_linalg=not args.no_linalg,
        safety=args.safety if args.safety is not None else DEFAULT_SAFETY,
        floor=args.floor if args.floor is not None else DEFAULT_FLOOR)
    rows = [[fam, fit.points,
             round(fit.scale_cycles, 4),
             f"{100 * fit.max_rel_err_cycles:.2f}%",
             f"{100 * fit.bound_cycles:.2f}%",
             round(fit.scale_energy, 4),
             f"{100 * fit.bound_energy:.2f}%"]
            for fam, fit in sorted(report.families.items())]
    print()
    print(format_table(
        ["family", "points", "cycle scale", "cycle resid", "cycle bound",
         "energy scale", "energy bound"],
        rows, title=f"calibration ({report.schema})"))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote {args.out}")
    _maybe_write_json(args.json, report.to_dict())
    return 0


def _write_obs_metrics(obs_dir, campaign):
    """Dump the campaign summary plus the parent-process metric
    snapshot next to the merged trace."""
    from pathlib import Path

    path = Path(obs_dir) / "metrics.json"
    payload = {
        "campaign": campaign.summary(),
        "metrics": obs.METRICS.snapshot(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _apply_system_axes(args, points):
    """Merge CLI-level multi-cluster axes into every stencil point."""
    axes = {}
    if args.num_clusters is not None:
        axes["num_clusters"] = args.num_clusters
    if args.iters is not None:
        axes["iters"] = args.iters
    if args.gmem_latency is not None:
        axes["gmem_latency"] = args.gmem_latency
    if args.link_bytes is not None:
        axes["link_bytes_per_cycle"] = args.link_bytes
    if not axes:
        return points
    merged_points = []
    for point in points:
        if point.is_vecop:
            merged_points.append(point)
            continue
        merged = dict(point.system)
        merged.update(axes)
        try:
            merged_points.append(make_workload(
                point.kernel, point.variant, grid=point.grid,
                unroll=point.unroll,
                overrides=dict(point.overrides) or None,
                system=merged))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return merged_points


#: Workload-identity columns of the sweep CSV; the metric columns are
#: the one result schema's scalars, minus only the build ``name``
#: (redundant with the identity columns).
CSV_IDENTITY = ("kernel", "variant", "grid", "n", "loop_mode", "unroll",
                "overrides", "system", "status", "cached", "seconds")
CSV_METRICS = tuple(k for k in RESULT_SCALARS if k != "name")


def _write_sweep_csv(path: str, campaign) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*CSV_IDENTITY, *CSV_METRICS])
        for outcome in campaign:
            point = outcome.point
            record = outcome.result.to_dict() if outcome.result else None
            writer.writerow([
                point.kernel, point.variant,
                "x".join(map(str, point.grid)) if point.grid else "",
                point.n if point.n is not None else "",
                point.loop_mode or "",
                point.unroll if point.unroll is not None else "",
                ";".join(f"{k}={v}" for k, v in point.overrides),
                ";".join(f"{k}={v}" for k, v in point.system),
                outcome.status, int(outcome.cached),
                round(outcome.seconds, 4),
                *([record[k] for k in CSV_METRICS] if record
                  else [""] * len(CSV_METRICS)),
            ])


#: Columns of the ``repro audit --csv`` per-point classification.
AUDIT_CSV_HEADER = ("label", "kernel", "variant", "engine",
                    "num_clusters", "key", "status", "detail", "attempts")


def _write_audit_csv(path: str, audit) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(AUDIT_CSV_HEADER)
        for entry in audit:
            point = entry.point
            writer.writerow([
                point.label, point.kernel, point.variant,
                point.engine or audit.engine, point.num_clusters,
                entry.key, entry.status, entry.detail or "",
                entry.attempts,
            ])


def _print_audit(title: str, audit, quiet: bool) -> None:
    print(f"{title}: {audit.total} points, coverage "
          f"{100.0 * audit.coverage:.1f}% ({audit.ok_count} ok)")
    gap_counts = ", ".join(f"{cls} {n}" for cls, n in
                           audit.counts().items()
                           if cls != "ok" and n)
    if gap_counts:
        print(f"gaps: {gap_counts}")
    if audit.corrupt_lines:
        print(f"corrupt store lines skipped: {audit.corrupt_lines} "
              f"(see --verify-store)")
    print()
    rows = [[axis, value, row["ok"], row["total"],
             f"{100.0 * row['coverage']:.1f}%"]
            for axis in AUDIT_AXES
            for value, row in audit.by_axis(axis).items()]
    print(format_table(["axis", "value", "ok", "total", "coverage"],
                       rows, title="coverage by axis"))
    if audit.gaps and not quiet:
        print()
        shown = audit.gaps[:25]
        for entry in shown:
            extra = f" [{entry.detail}]" if entry.detail else ""
            attempt = f" attempts={entry.attempts}" if entry.attempts \
                else ""
            print(f"  {entry.status:14s} {entry.point.label}"
                  f"{attempt}{extra}")
        if len(audit.gaps) > len(shown):
            print(f"  ... {len(audit.gaps) - len(shown)} more "
                  f"(--json/--csv for the full gap report)")


def _print_verify(cache_dir: str, report: dict) -> None:
    print(f"store {cache_dir}: {report['records']} record(s) in "
          f"{report['files']} file(s), {report['failure_records']} "
          f"failure record(s)")
    for bucket in ("corrupt", "invalid", "conflicts", "orphans",
                   "duplicates"):
        entries = report[bucket]
        if entries:
            print(f"  {bucket}: {len(entries)}")
            for entry in entries[:10]:
                print(f"    {entry}")
    print("store integrity: " + ("ok" if report["ok"] else "FAILED"))


def cmd_audit(args) -> int:
    store_only = args.verify_store and not (args.preset or args.spec)
    cache = ResultCache(args.cache_dir)
    store_ok = True

    verify_report = None
    if args.verify_store:
        verify_report = cache.verify()
        _print_verify(args.cache_dir, verify_report)
        store_ok = verify_report["ok"]

    if store_only:
        _maybe_write_json(args.json, {"verify": verify_report})
        return 0 if store_ok else 1

    name, title, points = _campaign_points(args, "audit")
    session = Session(cache=cache, workers=args.workers,
                      timeout=args.timeout, engine=args.engine)
    audit = session.audit(points, name=name)
    _print_audit(title, audit, args.quiet)

    payload = audit.to_dict()
    if verify_report is not None:
        payload["verify"] = verify_report
    exit_ok = audit.complete and store_ok

    if args.backfill or args.dry_run:
        plan = BackfillPlan(audit, retry_budget=args.retry_budget)
        payload["backfill"] = plan.to_dict()
        if args.dry_run:
            print()
            print(plan.describe())
        else:
            def progress(outcome, done, total):
                if not args.quiet:
                    tag = "hit" if outcome.cached else outcome.status
                    print(f"[{done:3d}/{total}] {tag:7s} "
                          f"{outcome.point.label}")

            print(f"\nbackfilling {len(plan)} point(s) "
                  f"({len(plan.abandoned)} abandoned, retry budget "
                  f"{plan.retry_budget})")
            campaign = plan.execute(session, progress=progress)
            payload["backfill"]["executed"] = campaign.summary()
            post = session.audit(points, name=name)
            payload["post"] = post.to_dict()
            print(f"\nafter backfill: coverage "
                  f"{100.0 * post.coverage:.1f}% "
                  f"({post.ok_count}/{post.total} ok)")
            exit_ok = post.complete and not plan.abandoned and store_ok

    _maybe_write_json(args.json, payload)
    if args.csv:
        _write_audit_csv(args.csv, audit)
    return 0 if exit_ok else 1


def cmd_profile(args) -> int:
    """Run one kernel/variant under cProfile and print hotspot tables."""
    import cProfile
    import io
    import pstats

    grid = _parse_grid(args)
    session = Session(engine=args.engine)
    try:
        work = make_workload(args.kernel, args.variant, grid=grid)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    engine = session.resolve(work).engine

    profiler = cProfile.Profile()
    profiler.enable()
    result = session.run(work)
    profiler.disable()

    print(f"{args.kernel}/{work.variant} engine={engine}: "
          f"{result.cycles} cycles, correct={result.correct}")
    for sort in ("cumulative", "tottime"):
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats(sort).print_stats(args.top)
        print(f"\n== top {args.top} by {sort} ==")
        # Drop the pstats preamble: keep the header line and the rows.
        lines = buf.getvalue().splitlines()
        start = next((i for i, line in enumerate(lines)
                      if line.lstrip().startswith("ncalls")), 0)
        print("\n".join(lines[start:]).rstrip())
    return 0


def cmd_list(args) -> int:
    print("kernels: " + ", ".join(kernel_names()))
    print("variants: " + ", ".join(v.label for v in VARIANT_ORDER))
    print("vecop variants: " + ", ".join(v.value for v in VecopVariant))
    print("sweep presets: " + ", ".join(sorted(PRESETS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalar-chaining reproduction harness (DATE 2025 LBR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="Fig. 1 vector-op variants")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--json")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig3", help="Fig. 3 utilization + power")
    p.add_argument("--kernel", action="append",
                   help="restrict to one or more kernels")
    p.add_argument("--json")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("claims", help="section III geomean claims")
    p.add_argument("--json")
    p.set_defaults(func=cmd_claims)

    p = sub.add_parser("run", help="run one kernel/variant")
    p.add_argument("--kernel", default="box3d1r")
    p.add_argument("--variant", default="Chaining+")
    p.add_argument("--nz", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--nx", type=int)
    p.add_argument("--num-clusters", type=int, default=1,
                   help="run on a multi-cluster system with this many "
                        "clusters (domain-decomposed halo exchange)")
    p.add_argument("--iters", type=int, default=1,
                   help="halo-exchange sweeps (system runs)")
    p.add_argument("--gmem-latency", type=int, default=None,
                   help="global-memory access latency in cycles")
    p.add_argument("--gmem-banks", type=int, default=None,
                   help="global-memory bank count (bandwidth scale)")
    p.add_argument("--link-bytes", type=int, default=None,
                   help="per-cluster interconnect link bytes/cycle")
    p.add_argument("--json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="Fig. 1c / Fig. 2 traces")
    p.add_argument("--variant", default="chaining",
                   choices=[v.value for v in VecopVariant])
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--loop", default="bne", choices=["bne", "frep"])
    p.add_argument("--slots", type=int, default=24)
    p.add_argument("--perfetto", metavar="PATH",
                   help="also write the issue trace as Chrome "
                        "trace-event JSON (open at ui.perfetto.dev)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("area", help="area-overhead estimate")
    p.add_argument("--json")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("sweep", help="run an experiment campaign")
    p.add_argument("--preset", help="named campaign: "
                   + ", ".join(sorted(PRESETS)))
    p.add_argument("--spec", help="JSON/TOML sweep spec file")
    p.add_argument("--cache-dir", default=".sweep-cache",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="re-simulate every point")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default: all cores; 0/1: serial)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock budget in seconds")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="execution engine for every point (bit-identical "
                        "results; 'scalar-v2' is the pre-decoded "
                        "micro-op engine, 'scalar' is the cycle-by-cycle "
                        "reference, 'auto' adds to scalar-v2 the "
                        "vectorized FREP/SSR fast path and the loop memo "
                        "(replayed integer-loop iterations), "
                        "'analytical' estimates "
                        "without simulating; default: config's own "
                        "choice); part of the result-cache key")
    p.add_argument("--num-clusters", type=int, default=None,
                   help="run every stencil point on this many clusters "
                        "(adds the system axes to labels + cache keys)")
    p.add_argument("--iters", type=int, default=None,
                   help="halo-exchange sweeps for multi-cluster points")
    p.add_argument("--gmem-latency", type=int, default=None,
                   help="global-memory access latency override")
    p.add_argument("--link-bytes", type=int, default=None,
                   help="per-cluster interconnect link bytes/cycle")
    p.add_argument("--baseline",
                   help="variant label for geomean-vs-baseline table")
    p.add_argument("--metric", default="region_cycles",
                   help="metric for the baseline comparison")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines")
    p.add_argument("--progress", action="store_true",
                   help="single-line live meter on stderr (done/total, "
                        "rate, ETA, cache hit-rate) instead of "
                        "per-point lines")
    p.add_argument("--obs-out", metavar="DIR",
                   help="enable telemetry for the campaign and write "
                        "DIR/trace.json (Perfetto) + DIR/metrics.json")
    p.add_argument("--fidelity", choices=["cycle", "analytical", "triage"],
                   default=None,
                   help="execution tier: 'analytical' estimates every "
                        "point in closed form (microseconds/point), "
                        "'triage' estimates everything and re-runs only "
                        "the interest region cycle-accurately, 'cycle' "
                        "(default) simulates everything")
    p.add_argument("--interest-metric", default="cycles",
                   help="triage interest metric (default: cycles)")
    p.add_argument("--interest-top", type=float, default=None,
                   help="triage: re-run the top FRACTION of points by "
                        "the interest metric (default 0.25)")
    p.add_argument("--interest-min", type=float, default=None,
                   help="triage: re-run points with metric >= MIN")
    p.add_argument("--interest-max", type=float, default=None,
                   help="triage: re-run points with metric <= MAX")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("serve",
                       help="run the async simulation-as-a-service job "
                            "layer (HTTP; see docs/serve.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="bind port (0: OS-assigned; default 8023)")
    p.add_argument("--store", default=".serve-store",
                   help="result store + job journal directory "
                        "(default .serve-store)")
    p.add_argument("--workers", type=int, default=None,
                   help="simulation pool width (default: all cores)")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="pending-point queue bound; submissions beyond "
                        "it get HTTP 429 (default 1024)")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-point wall-clock budget in seconds "
                        "(a job's own timeout wins)")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="execution engine for every served point "
                        "(cache-key ingredient)")
    p.add_argument("--prune-interval", type=float, default=None,
                   help="seconds between store prunes (default: never)")
    p.add_argument("--prune-max-bytes", type=int, default=None,
                   help="shard-byte budget for the periodic prune")
    p.add_argument("--prune-max-age-days", type=float, default=None,
                   help="shard-age horizon for the periodic prune")
    p.add_argument("--ready-file", metavar="PATH",
                   help="write {host, port, pid} JSON here once "
                        "listening (for scripts and CI)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("cache",
                       help="result-store maintenance (prune)")
    cache_sub = p.add_subparsers(dest="cache_cmd", required=True)
    p = cache_sub.add_parser(
        "prune", help="evict cold shards, LRU by shard mtime "
                      "(failure-log aware)")
    p.add_argument("--cache-dir", default=".sweep-cache",
                   help="result store to prune (default .sweep-cache)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="evict oldest shards until the rest fit")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="evict shards untouched for longer than this")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be evicted; touch nothing")
    p.add_argument("--json")
    p.set_defaults(func=cmd_cache_prune)

    p = sub.add_parser("calibrate",
                       help="cross-validate the analytical model against "
                            "a cycle-accurate engine and fit per-family "
                            "error bounds (repro-calibration/v1)")
    p.add_argument("--preset", help="named campaign: "
                   + ", ".join(sorted(PRESETS)))
    p.add_argument("--spec", help="JSON/TOML sweep spec file (default: "
                                  "the built-in cross-validation spec)")
    p.add_argument("--cache-dir", default=".sweep-cache",
                   help="result cache for the cycle-accurate runs")
    p.add_argument("--no-cache", action="store_true",
                   help="re-simulate every point")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default: all cores; 0/1: serial)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock budget in seconds")
    p.add_argument("--engine",
                   choices=[e for e in ENGINES if e != "analytical"],
                   default="auto",
                   help="cycle-accurate reference engine (default auto)")
    p.add_argument("--safety", type=float, default=None,
                   help="error-bound margin over the worst residual "
                        "(default 2.0)")
    p.add_argument("--floor", type=float, default=None,
                   help="minimum advertised error bound (default 0.05)")
    p.add_argument("--no-linalg", action="store_true",
                   help="skip the linalg cross-validation builds")
    p.add_argument("--out", metavar="PATH",
                   help="write the calibration report JSON here")
    p.add_argument("--json")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("audit",
                       help="campaign coverage, gap report and backfill "
                            "against the result store")
    p.add_argument("--preset", help="named campaign: "
                   + ", ".join(sorted(PRESETS)))
    p.add_argument("--spec", help="JSON/TOML sweep spec file")
    p.add_argument("--cache-dir", default=".sweep-cache",
                   help="result store to audit (default .sweep-cache)")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="campaign engine context (cache-key ingredient; "
                        "must match the sweep being audited)")
    p.add_argument("--workers", type=int, default=None,
                   help="process count for --backfill execution")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock budget for --backfill")
    p.add_argument("--backfill", action="store_true",
                   help="execute the plan: simulate exactly the gaps "
                        "(missing, stale re-keys, budgeted retries)")
    p.add_argument("--dry-run", action="store_true",
                   help="print the backfill plan without executing")
    p.add_argument("--retry-budget", type=int,
                   default=DEFAULT_RETRY_BUDGET,
                   help="max cumulative attempts for failed points "
                        f"(default {DEFAULT_RETRY_BUDGET})")
    p.add_argument("--verify-store", action="store_true",
                   help="re-parse every store record against the result "
                        "schema; report corrupt/duplicate/orphan lines")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-gap and per-point lines")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("profile",
                       help="cProfile one kernel/variant, print hotspots")
    p.add_argument("--kernel", default="j3d27pt")
    p.add_argument("--variant", default="Chaining+")
    p.add_argument("--engine", choices=ENGINES, default=None,
                   help="execution engine to profile (default: auto)")
    p.add_argument("--top", type=int, default=15,
                   help="rows per hotspot table")
    p.add_argument("--nz", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--nx", type=int)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("list", help="available kernels and variants")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("\naborted", file=sys.stderr, flush=True)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
