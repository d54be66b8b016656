"""The three workloads: ``fig3-cold``, ``campaign`` and ``serve-mixed``.

Each workload object prepares its inputs from the seed, runs one
repetition at a time (``rep``), checks every output against its
reference, and turns its repetitions into the end-to-end metrics.  See
``README.md`` in this directory for why each workload exists and which
layer each metric tracks.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from common import (
    HERE, Ledger, canonical_json, host_factor, percentile, reference_sample)

from repro.api import Result, Session, Workload, workload
from repro.eval.figures import PAPER_CLAIMS, claims_from_results
from repro.kernels.registry import PAPER_KERNELS
from repro.kernels.variants import VARIANT_ORDER
from repro.sweep.cache import ResultCache, package_version


@dataclass
class Rep:
    """One repetition: its wall time, the latency of each operation
    (keyed so that repeated operations line up across repetitions) and
    the cycles its cycle-accurate results simulated.

    ``host`` and ``op_hosts`` scale its times to the nominal host speed
    (:data:`~common.REFERENCE_NOMINAL_S`): ``op_hosts`` an operation's
    latency, ``host`` the rest of the wall time.  Both are 1 until the
    host's speed is known (``campaign`` knows it for the whole run only,
    see :meth:`Campaign.scaled`)."""

    wall_s: float
    latencies_ms: dict[str, float]
    cycles: int
    extra: dict = field(default_factory=dict)
    host: float = 1.0
    op_hosts: dict[str, float] = field(default_factory=dict)

    def scaled(self) -> "Rep":
        """The repetition with its times at the nominal host speed."""
        if self.host == 1.0 and not self.op_hosts:
            return self
        latencies = {k: ms * self.op_hosts.get(k, self.host)
                     for k, ms in self.latencies_ms.items()}
        rest = self.wall_s - sum(self.latencies_ms.values()) / 1000
        return Rep(rest * self.host + sum(latencies.values()) / 1000,
                   latencies, self.cycles, self.extra)


def scale_each(reps: list[Rep]) -> list[Rep]:
    """The repetitions at the nominal host speed, each by its own
    samples."""
    return [rep.scaled() for rep in reps]


def op_latencies(reps: list[Rep]) -> list[float]:
    """Each operation's median latency across the repetitions."""
    samples: dict[str, list[float]] = {}
    for rep in reps:
        for key, ms in rep.latencies_ms.items():
            samples.setdefault(key, []).append(ms)
    return [statistics.median(values) for values in samples.values()]


def point_latencies(campaign) -> dict[str, float]:
    return {o.point.label: 1000 * o.seconds for o in campaign.outcomes}


def pinned_points(name: str) -> list[Workload]:
    """A point list pinned in ``points.json`` (copied from the presets
    once, so editing a preset never changes a workload)."""
    data = json.loads((HERE / "points.json").read_text())
    return [Workload.from_canonical(item) for item in data[name]]


def claim_error_pct(results: dict[tuple[str, str], Result]) -> float:
    """Mean absolute difference, in percentage points, between the
    Section III claims measured on ``results`` and ``PAPER_CLAIMS``."""
    measured = claims_from_results(results).as_dict()
    diffs = []
    for name, value in measured.items():
        paper = PAPER_CLAIMS[name]
        if name == "min_chaining_utilization":
            value, paper = 100.0 * value, 100.0 * paper
        diffs.append(abs(value - paper))
    return statistics.fmean(diffs)


def analytical_error_pct(pairs) -> float:
    """Mean absolute relative error (%) of analytical against
    cycle-accurate cycles over ``(workload, cycle-accurate result)``."""
    estimator = Session(engine="analytical")
    errors = [abs(estimator.run(w).cycles - r.cycles) / r.cycles
              for w, r in pairs]
    return 100.0 * statistics.fmean(errors)


def timing_metrics(bench, reps: list[Rep]) -> dict[str, float]:
    """``wall_s``, ``sim_cycles_per_s`` and the latency percentiles."""
    wall = bench.wall_s(reps)
    latencies = op_latencies(reps)
    return {"wall_s": wall,
            "sim_cycles_per_s": statistics.median(r.cycles for r in reps)
            / wall,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90)}


def median_wall(reps: list[Rep]) -> float:
    return statistics.median(rep.wall_s for rep in reps)


def _check_outcomes(ledger: Ledger, campaign, what: str) -> None:
    failed = [o for o in campaign.outcomes
              if not o.ok or not o.result.correct]
    ledger.ops(len(campaign.outcomes), len(failed))
    for outcome in failed[:3]:
        ledger.problems.append(f"{what}: {outcome.point.label} "
                               f"{outcome.status}: {outcome.error}")


class Fig3Cold:
    """The paper's Fig. 3 campaign, serial, on an empty store."""

    name = "fig3-cold"

    def __init__(self, work: Path, seed: int, ledger: Ledger):
        self.work = work
        self.ledger = ledger
        self.points = pinned_points("fig3")
        random.Random(seed).shuffle(self.points)
        self.digest = json.loads((HERE / "fig3_digest.json").read_text())
        self.probe_store = work / "probe-store"
        self.results: dict[Workload, Result] = {}
        self._reps = itertools.count()

    def prepare(self) -> None:
        self.probe_store.mkdir(parents=True)

    def rep(self) -> Rep:
        """One serial campaign, with the reference loop sampled before
        the first point and after each point (from the progress hook:
        outside the points' own times, and taken out of the wall time).
        A point's time is scaled by the two samples around it."""
        store = self.work / f"fig3-{next(self._reps)}"
        session = Session(cache=str(store))
        samples = [reference_sample()]
        order = []

        def between_points(outcome, done, total):
            order.append(outcome.point.label)
            samples.append(reference_sample())

        start = time.perf_counter()
        campaign = session.map(self.points, progress=between_points)
        wall = time.perf_counter() - start - sum(samples[1:])
        _check_outcomes(self.ledger, campaign, self.name)
        self.results = campaign.results()
        self._check_digest()
        shutil.rmtree(store, ignore_errors=True)
        return Rep(wall, point_latencies(campaign),
                   sum(r.cycles for r in self.results.values()),
                   host=host_factor(*samples),
                   op_hosts={label: host_factor(*samples[i:i + 2])
                             for i, label in enumerate(order)})

    @staticmethod
    def wall_s(reps: list[Rep]) -> float:
        """The points run one after another, so a repetition's wall time
        is the sum of its point times plus the rest; taking each part's
        median across repetitions keeps one slow stretch of the host
        from moving the figure."""
        rest = statistics.median(
            rep.wall_s - sum(rep.latencies_ms.values()) / 1000
            for rep in reps)
        return sum(op_latencies(reps)) / 1000 + rest

    scaled = staticmethod(scale_each)

    def _check_digest(self) -> None:
        for point in self.points:
            result = self.results.get(point)
            want = self.digest[point.label]
            got = None if result is None else {
                "cycles": result.cycles,
                "region_cycles": result.region_cycles,
                "fpu_utilization": result.fpu_utilization,
                "energy_pj": result.energy.total_pj}
            self.ledger.check(got == want,
                              f"fig3 digest {point.label}: {got} != {want}")

    def accuracy(self) -> dict[str, float]:
        by_label = {(w.kernel, w.variant): r
                    for w, r in self.results.items()}
        return {"paper_claim_err_pct": claim_error_pct(by_label),
                "analytical_err_pct":
                    analytical_error_pct(self.results.items())}

    def close(self) -> None:
        pass


class Campaign:
    """The union of five presets: cold on a pool, warm replay from a
    fresh cache on the same store, then analytical and triage passes."""

    name = "campaign"
    workers = 2

    def __init__(self, work: Path, seed: int, ledger: Ledger):
        self.work = work
        self.ledger = ledger
        # The pinned order, whatever the seed: which points the two
        # workers run side by side sets each point's time and the
        # workers' peak RSS, and a seeded order made both vary by seed.
        self.points = pinned_points("campaign")
        self.probe_store = work / "probe-store"
        self.cold: dict[Workload, Result] = {}
        self._reps = itertools.count()
        self._samples: list[float] = []

    def prepare(self) -> None:
        self.probe_store.mkdir(parents=True)

    def _sample(self) -> None:
        self._samples += [reference_sample()
                          for _ in range(self.SAMPLES_BETWEEN)]

    #: Reference samples between repetitions.  The pool fills both cores,
    #: so the host's speed is sampled only between repetitions, and one
    #: factor from all of a run's samples scales every repetition: a
    #: repetition's own few samples are noisier than the host's drift
    #: within a run.
    SAMPLES_BETWEEN = 3

    def rep(self, workers: int | None = None) -> Rep:
        workers = workers or self.workers
        store = self.work / f"campaign-{next(self._reps)}"
        points = self.points
        if not self._samples:
            self._sample()
        session = Session(cache=str(store), workers=workers)
        start = time.perf_counter()
        cold = session.map(points)
        warm_session = Session(cache=ResultCache(store), workers=workers)
        warm = warm_session.map(points)
        analytical = warm_session.map(points, fidelity="analytical")
        triage = warm_session.map(points, fidelity="triage")
        wall = time.perf_counter() - start
        self._sample()

        ledger = self.ledger
        for what, campaign in (("cold", cold), ("warm", warm),
                               ("analytical", analytical),
                               ("triage", triage)):
            _check_outcomes(ledger, campaign, f"campaign {what}")
        ledger.check(cold.cached_count == 0, "cold pass hit the cache")
        ledger.check(warm.cached_count == len(points),
                     f"warm hit rate {warm.hit_rate:.3f} != 1")
        same = all(
            a.ok and b.ok and canonical_json(a.result.to_dict())
            == canonical_json(b.result.to_dict())
            for a, b in zip(cold.outcomes, warm.outcomes))
        ledger.check(same, "warm replay differs from the cold results")
        self.cold = cold.results()
        self.analytical = analytical.results()
        busy = sum(o.seconds for o in cold.outcomes)
        shutil.rmtree(store, ignore_errors=True)
        return Rep(wall, point_latencies(cold),
                   sum(r.cycles for r in self.cold.values()),
                   {"pool_overhead_s": cold.seconds - busy / workers})

    wall_s = staticmethod(median_wall)

    def scaled(self, reps: list[Rep]) -> list[Rep]:
        factor = host_factor(*self._samples)
        return [replace(rep, host=factor).scaled() for rep in reps]

    def accuracy(self) -> dict[str, float]:
        errors = [abs(self.analytical[w].cycles - r.cycles) / r.cycles
                  for w, r in self.cold.items()]
        # The Fig. 3 variant set inside the banking preset, at the
        # default bank count.
        fig3_like = {(w.kernel, w.variant): r
                     for w, r in self.cold.items()
                     if w.overrides == (("tcdm_banks", 32),)}
        return {"paper_claim_err_pct": claim_error_pct(fig3_like),
                "analytical_err_pct": 100.0 * statistics.fmean(errors)}

    def close(self) -> None:
        pass


# -- serve-mixed --------------------------------------------------------------

SEEDED_RECORDS = 3000
SERVE_WORKERS = 2
CLIENTS = 2
#: One client's operations per round, shuffled by the seed.
ROUND_MIX = ("hit",) * 6 + ("dedup",) + ("fresh",) * 3
VECOP_VARIANTS = ("baseline", "unrolled", "chaining")
LOOP_MODES = ("frep", "bne")
STENCILS_3D = ("box3d1r", "j3d27pt", "star3d1r")
STENCILS_2D = ("j2d5pt", "box2d1r")
#: Grid of the Fig. 3 reference set the first fresh points run.
REFERENCE_GRID = (2, 3, 8)


def _stencil_grids(kernel: str, count: int) -> list[tuple[int, int, int]]:
    if kernel in STENCILS_2D:
        grids = [(1, ny, nx) for ny in range(3, 30) for nx in (8, 16)]
    else:
        grids = [(nz, ny, nx) for nz in (1, 2, 3) for ny in (3, 4, 5, 6)
                 for nx in (8, 16)]
    return grids[:count]


def seeded_store_workloads() -> list[Workload]:
    """The analytical-engine workloads pre-seeding the serve store."""
    out = [workload("vecop", v, n=n, loop_mode=m, engine="analytical")
           for n in range(16, 16 + 8 * 400, 8)
           for v in VECOP_VARIANTS for m in LOOP_MODES]
    for kernel in STENCILS_3D + STENCILS_2D:
        for grid in _stencil_grids(kernel, 24):
            out += [workload(kernel, v.label, grid=grid,
                             engine="analytical") for v in VARIANT_ORDER]
    return out[:SEEDED_RECORDS]


def reference_points() -> list[Workload]:
    """Fig. 3's variant set at a small grid: the first fresh points of
    every run, whatever the seed, so accuracy is comparable."""
    return [workload(k, v.label, grid=REFERENCE_GRID)
            for k in PAPER_KERNELS for v in VARIANT_ORDER]


def fresh_pool() -> list[Workload]:
    """Small cycle-accurate points no run has seen (not in the store)."""
    out = [workload("vecop", v, n=n, loop_mode=m,
                    overrides={"tcdm_banks": banks} if banks else None)
           for n in range(16, 16 + 8 * 100, 8)
           for v in VECOP_VARIANTS for m in LOOP_MODES
           for banks in (None, 8, 16, 64)]
    for kernel in STENCILS_3D + STENCILS_2D:
        for grid in _stencil_grids(kernel, 12):
            if grid == REFERENCE_GRID:
                continue
            out += [workload(kernel, v.label, grid=grid)
                    for v in VARIANT_ORDER]
    return out


@dataclass
class ClientJob:
    """One client operation and what the client observed."""

    kind: str
    workloads: list[Workload]
    latency_ms: float = 0.0
    submit_ms: float = 0.0
    view: dict | None = None
    error: str | None = None


class ServeMixed:
    """Two closed-loop clients against an in-process server over a
    store pre-seeded with analytical records."""

    name = "serve-mixed"

    def __init__(self, work: Path, seed: int, ledger: Ledger):
        self.work = work
        self.ledger = ledger
        self.rng = random.Random(seed)
        self.store = work / "serve-store"
        self.probe_store = self.store
        self.seeded = seeded_store_workloads()
        pool = fresh_pool()
        self.rng.shuffle(pool)
        refs = reference_points()
        self.rng.shuffle(refs)
        self._fresh = iter(refs + pool)
        self._fresh_lock = threading.Lock()
        self.references = set(refs)
        self.jobs: list[ClientJob] = []
        self._rounds = itertools.count()
        self._sample: float | None = None   # last reference sample
        self.server = None

    def prepare(self) -> None:
        plain = Session()
        cache = ResultCache(self.store)
        version = package_version()
        for w in self.seeded:
            start = time.perf_counter()
            result = plain.run(w)
            cache.put(plain.key(w), w, result,
                      time.perf_counter() - start, version)

    def start(self) -> None:
        from repro.serve.testing import ServerThread

        self.server = ServerThread(self.store, workers=SERVE_WORKERS)
        self.server.start()
        self.client = self.server.client(timeout=60.0)
        self.metrics_before = self.client.metrics()["serve"]

    def _next_fresh(self) -> Workload:
        with self._fresh_lock:
            return next(self._fresh)

    def _plan(self) -> list[list[ClientJob]]:
        plans = []
        for _ in range(CLIENTS):
            kinds = list(ROUND_MIX)
            self.rng.shuffle(kinds)
            jobs = []
            for kind in kinds:
                if kind == "hit":
                    point = self.rng.choice(self.seeded)
                    jobs.append(ClientJob(kind, [point]))
                else:
                    jobs.append(ClientJob(kind, []))   # drawn when sent
            plans.append(jobs)
        return plans

    def _run_job(self, job: ClientJob) -> None:
        from repro.serve import TERMINAL_STATUSES, ServeError

        if not job.workloads:
            point = self._next_fresh()
            job.workloads = [point, point] if job.kind == "dedup" \
                else [point]
        sent = time.time()
        start = time.perf_counter()
        try:
            view = self.client.submit(job.workloads)
            job.submit_ms = 1000 * (time.perf_counter() - start)
            if view["status"] in TERMINAL_STATUSES:
                job.latency_ms = job.submit_ms
                job.view = view
                return
            # The stream closes once the job is terminal.  The server
            # marks a job terminal just before it appends the "finished"
            # event, so the stream can close without that event; the
            # job view's "finished" stamp is the same moment.
            finished = None
            for event in self.client.events(view["id"]):
                if event["event"] == "finished":
                    finished = event["ts"]
            job.view = self.client.job(view["id"])
            if finished is None:
                finished = job.view["finished"]
            job.latency_ms = 1000 * (finished - sent)
        except (ServeError, OSError) as exc:
            job.error = f"{type(exc).__name__}: {exc}"

    def _client(self, jobs: list[ClientJob]) -> None:
        for job in jobs:
            self._run_job(job)

    def rep(self) -> Rep:
        """One round; its times are scaled by the reference samples
        taken, with the server idle, just before and just after it."""
        before = self._sample or reference_sample()
        plans = self._plan()
        threads = [threading.Thread(target=self._client, args=(jobs,))
                   for jobs in plans]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        jobs = [job for plan in plans for job in plan]
        self.jobs.extend(jobs)
        failed = [j for j in jobs
                  if j.error or j.view is None or j.view["status"] != "done"]
        self.ledger.ops(len(jobs), len(failed))
        for job in failed[:3]:
            self.ledger.problems.append(
                f"serve {job.kind} job failed: {job.error or job.view}")
        cycles = sum(job.view["results"][0]["result"]["cycles"]
                     for job in jobs
                     if job.kind != "hit" and job not in failed)
        round_index = next(self._rounds)
        self._sample = reference_sample()
        return Rep(wall, {f"{round_index}.{i}": job.latency_ms
                          for i, job in enumerate(jobs)}, cycles,
                   host=host_factor(before, self._sample))

    wall_s = staticmethod(median_wall)
    scaled = staticmethod(scale_each)

    def path_metrics(self, jobs: list[ClientJob]) -> dict[str, float]:
        """Client-side per-path latencies (the serve layer's metrics)."""
        def p50(kind):
            return percentile([j.latency_ms for j in jobs
                               if j.kind == kind and j.view], 50)
        waits = [j.latency_ms - 1000 * j.view["results"][0]["seconds"]
                 for j in jobs if j.kind == "fresh" and j.view]
        return {
            "serve.submit_ms": percentile(
                [j.submit_ms for j in jobs if j.kind != "hit"], 50),
            "serve.hit_ms": p50("hit"),
            "serve.dedup_ms": p50("dedup"),
            "serve.fresh_ms": p50("fresh"),
            "serve.queue_wait_ms": percentile(waits, 50),
        }

    def stop(self) -> dict:
        """Stop the server; returns the ``serve.*`` counter deltas."""
        after = self.client.metrics()["serve"]
        self.server.stop()
        self.server = None
        return {k: after[k] - self.metrics_before.get(k, 0)
                for k in after}

    def verify(self, counters: dict) -> None:
        """Every answer equals ``Session.run`` on the same workload, and
        every unique fresh point ran exactly once."""
        ledger = self.ledger
        answered = [j for j in self.jobs if j.view and not j.error]
        cycle_points = list(dict.fromkeys(
            j.workloads[0] for j in answered if j.kind != "hit"))
        reference = Session(workers=SERVE_WORKERS).map(cycle_points)
        expected = {o.point: canonical_json(o.result.to_dict())
                    for o in reference.outcomes if o.ok}
        plain = Session()
        for job in answered:
            for point, record in zip(job.workloads, job.view["results"]):
                if point not in expected:
                    expected[point] = canonical_json(
                        plain.run(point).to_dict())
                ledger.check(
                    canonical_json(record["result"]) == expected[point],
                    f"serve answer for {point.label} != Session.run")
            if job.kind == "hit":
                ledger.check(job.view["results"][0]["cached"],
                             f"hit {job.workloads[0].label} not cached")
        ledger.check(counters["serve.executions"] == len(cycle_points),
                     f"{counters['serve.executions']} executions for "
                     f"{len(cycle_points)} unique fresh points")
        dedups = sum(1 for j in self.jobs if j.kind == "dedup")
        ledger.check(counters["serve.dedup_hits"] == dedups,
                     f"{counters['serve.dedup_hits']} dedup hits for "
                     f"{dedups} dedup jobs")
        self.cycle_points = cycle_points

    def accuracy(self) -> dict[str, float]:
        results = {}
        for job in self.jobs:
            point = job.workloads[0] if job.workloads else None
            if point in self.references and job.view:
                results[point] = Result.from_dict(
                    job.view["results"][0]["result"])
        if len(results) != len(self.references):
            self.ledger.check(False, "reference points did not all run")
            return {"paper_claim_err_pct": 0.0, "analytical_err_pct": 0.0}
        by_label = {(w.kernel, w.variant): r for w, r in results.items()}
        return {"paper_claim_err_pct": claim_error_pct(by_label),
                "analytical_err_pct":
                    analytical_error_pct(results.items())}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (Fig3Cold, Campaign, ServeMixed)}

