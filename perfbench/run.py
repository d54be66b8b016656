"""Repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload fig3-cold --seed 1 --seconds 25 \\
        --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs the workload untraced
and then traced, and reports the per-layer metrics (spans recorded from
this directory around each layer's public functions, see
``tracing.py``).  Every correctness check runs in both modes.  Metric
names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every operation succeeded and every check
passed.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT, SRC, Ledger, children_rss_mb, own_rss_mb, quiesce, reap_children,
    repeat, setup_seconds)

#: Scratch space inside the checkout (set up per run, removed after).
WORK_DIR = ROOT / ".perfbench_work"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(bench, seconds: float):
    """Repeat the workload for ``seconds``; returns the repetitions and
    the peak RSS: this process's by the end of the first repetition
    (it grows a little with each repetition, which would make it depend
    on how many fit), or any pool worker's that ended during the run
    (which worker runs the largest points changes from one repetition
    to the next; the maximum over all of them settles)."""
    start = time.perf_counter()
    reps = [bench.rep()]
    own = own_rss_mb()
    while time.perf_counter() - start < seconds:
        reps.append(bench.rep())
    return reps, max(own, children_rss_mb())


def end_to_end(bench, reps, rss: float,
               setup: list[float]) -> dict[str, float]:
    from workloads import timing_metrics

    samples = sum(len(rep.latencies_ms) for rep in reps)
    scaled = bench.scaled(reps)
    print(f"# {bench.name}: {len(reps)} repetitions, {samples} latency "
          f"samples, {len(setup)} set-up probes; wall_s "
          f"{bench.wall_s(reps):.4f} raw, {bench.wall_s(scaled):.4f} "
          f"at the nominal host speed")
    reps = scaled
    return {
        "setup_s": statistics.median(setup),
        **timing_metrics(bench, reps),
        "peak_rss_mb": rss,
        **bench.accuracy(),
    }


def traced_phase(bench, seconds: float, rep=None):
    """Install the wrappers, repeat ``rep`` inside the root span for
    ``seconds``, uninstall; returns ``(tracer, reps)``."""
    from tracing import LayerTracer

    rep = rep or bench.rep
    tracer = LayerTracer().install()
    try:
        reps = repeat(lambda: tracer.root(rep), seconds)
    finally:
        tracer.uninstall()
    return tracer, reps


def per_layer(bench, untraced, tracer, traced, extra) -> dict[str, float]:
    """Per-layer metrics of one traced phase against its untraced twin.

    The two phases' wall times are scaled to the nominal host speed, as
    in the end-to-end metrics, so that the overhead is not the host's
    drift between them; the layer shares divide raw self times by the
    raw traced wall time."""
    layers = tracer.layer_metrics(len(traced))
    raw = statistics.fmean(rep.wall_s for rep in traced)
    wall = statistics.fmean(rep.wall_s for rep in bench.scaled(traced))
    plain = statistics.fmean(rep.wall_s for rep in bench.scaled(untraced))
    attributed = sum(v for k, v in layers.items()
                     if k.startswith("self_s.") and k != "self_s.bench")
    print(f"# {bench.name}: {len(untraced)} untraced and {len(traced)} "
          f"traced repetitions")
    return {
        **layers,
        "sweep.pool_overhead_s": 0.0,
        "serve.submit_ms": 0.0, "serve.hit_ms": 0.0,
        "serve.dedup_ms": 0.0, "serve.fresh_ms": 0.0,
        "serve.queue_wait_ms": 0.0, "serve.executions_per_unique": 0.0,
        **extra,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain,
        "trace.overhead_s": wall - plain,
        "trace.layer_frac": attributed / raw,
        "trace.core_frac": layers["self_s.core"] / raw,
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        ledger: Ledger) -> dict[str, float]:
    from workloads import WORKLOADS

    work = WORK_DIR / f"{name}-{os.getpid()}"
    bench = WORKLOADS[name](work, seed, ledger)
    try:
        bench.prepare()
        setup = setup_seconds(name, bench.probe_store)
        if name == "serve-mixed":
            return run_serve(bench, seconds, trace, setup)
        if not trace:
            return end_to_end(bench, *measure(bench, seconds), setup)
        extra = {}
        if name == "campaign":
            # Spans cannot reach pool workers: the pool's cost comes
            # from an untraced pooled pass, the layers from serial ones.
            pooled = repeat(bench.rep, seconds / 3)
            extra["sweep.pool_overhead_s"] = statistics.median(
                rep.extra["pool_overhead_s"] for rep in pooled)
            serial = lambda: bench.rep(workers=1)  # noqa: E731
            untraced = repeat(serial, seconds / 3)
            tracer, traced = traced_phase(bench, seconds / 3, serial)
        else:
            untraced = repeat(bench.rep, seconds / 2)
            tracer, traced = traced_phase(bench, seconds / 2)
        return per_layer(bench, untraced, tracer, traced, extra)
    finally:
        bench.close()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()        # only if no other run is using it
        except OSError:
            pass


def run_serve(bench, seconds: float, trace: bool,
              setup: list[float]) -> dict[str, float]:
    bench.start()
    try:
        if not trace:
            reps, rss = measure(bench, seconds)
        else:
            untraced = repeat(bench.rep, seconds / 2)
            paths = bench.path_metrics(list(bench.jobs))
            tracer, traced = traced_phase(bench, seconds / 2)
    finally:
        counters = bench.stop()
    quiesce()                       # verify forks a pool of its own
    bench.verify(counters)
    if not trace:
        return end_to_end(bench, reps, rss, setup)
    paths["serve.executions_per_unique"] = \
        counters["serve.executions"] / max(len(bench.cycle_points), 1)
    return per_layer(bench, untraced, tracer, traced, paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = spec()
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    wanted = config["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or config["run_seconds"]

    ledger = Ledger()
    metrics = run(args.workload, args.seed, seconds, bool(args.trace),
                  ledger)
    if set(metrics) != {m["name"] for m in wanted}:
        missing = sorted({m["name"] for m in wanted} - set(metrics))
        extra = sorted(set(metrics) - {m["name"] for m in wanted})
        print(f"error: metric set differs from BENCHMARK.json: missing "
              f"{missing}, unlisted {extra}", file=sys.stderr)
        return 3

    for m in wanted:
        print(f"{m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    print(f"{'failed_frac':32s} {failed_frac:>16.6g} "
          f"({ledger.failed}/{ledger.attempted})")
    for problem in ledger.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
