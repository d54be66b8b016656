"""The session: one front door for running workloads at any scale.

A :class:`Session` holds the execution context -- base
:class:`~repro.core.config.CoreConfig`, result cache, process-pool
width, per-point timeout, engine selection -- and exposes:

* :meth:`Session.run` -- execute one :class:`~repro.api.workloads.
  Workload` (or a prebuilt :class:`~repro.kernels.build.KernelBuild`)
  and return the unified :class:`~repro.api.result.Result`;
* :meth:`Session.map` -- execute many workloads through the sweep
  engine's process pool and content-addressed cache, returning the
  :class:`~repro.sweep.runner.Campaign` of outcomes;
* :meth:`Session.resolve` -- the materialized ``CoreConfig`` /
  ``SystemConfig`` a workload would run under (the single-cluster or
  :mod:`repro.system` backend is picked automatically);
* :meth:`Session.key` -- the workload's content-address in the result
  cache (identical to the pre-1.5 sweep ``point_key``);
* :meth:`Session.audit` / :meth:`Session.backfill` -- campaign
  completeness against the session's result store: classify every
  point (ok / missing / error / timeout / stale-version /
  stale-schema) and re-run exactly the gaps
  (:mod:`repro.sweep.audit`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable

from repro.api.parse import parse_engine
from repro.api.result import Result
from repro.api.workloads import Workload
from repro.core.config import CoreConfig, SystemConfig
from repro.kernels.build import KernelBuild
from repro.obs import spans as _obs
from repro.obs.metrics import METRICS
from repro.sweep.cache import ResultCache, package_version, point_key

if TYPE_CHECKING:
    from repro.api.cancel import CancelToken
    from repro.sweep.audit import BackfillPlan, CampaignAudit
    from repro.sweep.runner import Campaign


def execute_workload(work: Workload, **kwargs) -> Result:
    """:func:`repro.api.execute.execute_workload`, imported on first
    use: a session that only reads its cache never loads the
    simulator."""
    from repro.api.execute import execute_workload as execute

    return execute(work, **kwargs)


class Session:
    """Execution context resolving workloads onto the right backend.

    ``workers`` sets the default pool width for :meth:`map`:
    ``1`` (the default) runs serially in-process -- results are the
    very objects the backends produced, which bit-identical
    reproduction relies on -- ``None`` sizes the pool to the host's
    cores, and any other integer is an explicit pool width.

    ``max_cycles=None`` (the default) uses each backend's own budget
    -- 20M simulated cycles for multi-cluster workloads, 5M otherwise
    -- identically in :meth:`run` and :meth:`map`, so what enters a
    shared cache never depends on which front door simulated it.

    ``timeout`` is the per-workload wall-clock budget of :meth:`map`
    campaigns (enforced in the sweep workers); :meth:`run` executes
    in-process and is bounded by ``max_cycles`` only.
    """

    def __init__(self, cfg: CoreConfig | None = None, *,
                 cache: ResultCache | str | None = None,
                 workers: int | None = 1,
                 timeout: float | None = None,
                 engine: str | None = None,
                 max_cycles: int | None = None):
        self.cfg = cfg
        self.cache = ResultCache.coerce(cache)
        self.workers = workers
        self.timeout = timeout
        self.engine = parse_engine(engine) if engine is not None else None
        self.max_cycles = max_cycles

    # -- resolution --------------------------------------------------------

    def resolve(self, workload: Workload) -> CoreConfig | SystemConfig:
        """Materialized config ``workload`` runs under in this session."""
        from repro.api.execute import resolve_config

        return resolve_config(workload, base_cfg=self.cfg,
                              engine=self.engine)

    def key(self, workload: Workload) -> str:
        """Content-address of ``workload`` in this session's cache."""
        return point_key(workload, package_version(), self.cfg,
                         engine=self.engine)

    # -- execution ---------------------------------------------------------

    def run(self, work: Workload | KernelBuild, *,
            require_correct: bool = True) -> Result:
        """Execute one workload (or prebuilt kernel) and return its
        :class:`Result`.

        Workloads go through the session cache when one is configured;
        ad-hoc :class:`KernelBuild` objects have no canonical form and
        always simulate.  Failures raise (``ValueError`` for bad
        configs, ``AssertionError`` for golden-model mismatches when
        ``require_correct``).
        """
        if isinstance(work, KernelBuild):
            cfg = self._build_cfg()
            if cfg is not None and cfg.engine == "analytical":
                from repro.analytical.model import estimate_build
                return estimate_build(work, cfg=cfg)
            from repro.api.execute import DEFAULT_MAX_CYCLES
            from repro.eval.runner import execute_build
            return execute_build(work, cfg=cfg,
                                 max_cycles=self.max_cycles
                                 or DEFAULT_MAX_CYCLES,
                                 require_correct=require_correct)
        if not isinstance(work, Workload):
            raise TypeError(
                f"Session.run() takes a Workload or a KernelBuild, "
                f"got {type(work).__name__}")
        if not _obs.ENABLED:
            return self._run_workload(work, require_correct)
        METRICS.inc("session.runs")
        with _obs.tracer().span("Session.run", "api",
                                args={"workload": work.label}) as sargs:
            return self._run_workload(work, require_correct,
                                      span_args=sargs)

    def _run_workload(self, work: Workload, require_correct: bool,
                      span_args: dict | None = None) -> Result:
        key = self.key(work) if self.cache is not None else None
        if key is not None:
            hit = self.cache.get(key)
            if hit is not None:
                if span_args is not None:
                    span_args["cache"] = "hit"
                    METRICS.inc("cache.hit")
                return hit
        start = time.perf_counter()
        result = execute_workload(work, base_cfg=self.cfg,
                                  max_cycles=self.max_cycles,
                                  engine=self.engine,
                                  require_correct=require_correct)
        seconds = time.perf_counter() - start
        if key is not None and result.correct:
            # Never cache an incorrect result (possible only with
            # require_correct=False): the key is shared with campaigns
            # that would replay it as an 'ok' outcome.
            self.cache.put(key, work, result, seconds, package_version())
        if span_args is not None:
            # Annotate after cache.put so the wall-clock fields never
            # reach the bit-identity-pinned on-disk records.
            span_args["cache"] = "miss" if key is not None else "uncached"
            if key is not None:
                METRICS.inc("cache.miss")
            METRICS.observe("sweep.point_seconds", seconds)
            result.meta.setdefault("obs", {})["wall_seconds"] = seconds
        return result

    def map(self, workloads: Iterable[Workload],
            parallel: bool | int | None = None,
            progress: Callable | None = None, *,
            fidelity: str | None = None,
            interest: Callable | dict | None = None,
            cancel: CancelToken | None = None) -> Campaign:
        """Execute many workloads; returns the campaign of outcomes.

        ``parallel``: ``None`` uses the session's ``workers`` default,
        ``False`` forces serial in-process execution, ``True`` fans out
        over all cores, and an integer is an explicit pool width.
        Failures are isolated per workload (see
        :class:`~repro.sweep.runner.Outcome`); cache hits replay
        without simulating.

        ``fidelity`` selects the execution tier:

        * ``None`` / ``"cycle"`` -- the session's engine (default);
        * ``"analytical"`` -- the closed-form estimator for every point
          (cached under ``engine="analytical"`` keys; a per-point
          ``("engine", ...)`` override still wins, as everywhere);
        * ``"triage"`` -- estimate every point analytically in-process
          (pure, uncached), then re-run only the ``interest`` region
          (see :func:`repro.analytical.triage.select_interest`; default
          the slowest quartile by estimated cycles) cycle-accurately.
          The merged campaign preserves point order, carries estimate
          outcomes (``meta["fidelity"]="analytical"``, no cache key)
          for the rest, and reports counts in ``Campaign.triage``.

        ``cancel`` is a cooperative :class:`~repro.api.cancel.
        CancelToken`: trip it (from a signal handler, another thread,
        or the serve layer) and the campaign stops dispatching new
        points, drains what is in flight, and returns with
        ``"cancelled"`` outcomes for the rest --
        see :meth:`repro.sweep.runner.SweepRunner.run`.
        """
        from repro.sweep.runner import SweepRunner

        works = list(workloads)
        if fidelity not in (None, "cycle", "analytical", "triage"):
            raise ValueError(
                f"fidelity must be one of 'cycle', 'analytical', "
                f"'triage' (or None), got {fidelity!r}")
        if interest is not None and fidelity != "triage":
            raise ValueError(
                "interest applies to fidelity='triage' only")
        if fidelity == "triage":
            def run() -> Campaign:
                return self._map_triage(works, parallel, progress,
                                        interest, cancel)
        else:
            engine = "analytical" if fidelity == "analytical" \
                else self.engine
            runner = SweepRunner(
                cache=self.cache, workers=self._pool_width(parallel),
                timeout=self.timeout, base_cfg=self.cfg,
                max_cycles=self.max_cycles, engine=engine)

            def run() -> Campaign:
                return runner.run(works, progress=progress,
                                  cancel=cancel)
        if not _obs.ENABLED:
            return run()
        with _obs.tracer().span("Session.map", "api",
                                args={"points": len(works)}) as sargs:
            campaign = run()
            sargs["cache_hits"] = campaign.cached_count
            sargs["failed"] = len(campaign.failed)
            return campaign

    def _map_triage(self, works: list[Workload],
                    parallel: bool | int | None,
                    progress: Callable | None,
                    interest: Callable | dict | None,
                    cancel: CancelToken | None = None) -> Campaign:
        """Estimate everything, simulate only the interest region.

        The estimate phase calls the estimator directly -- pure and
        in-process, so a triage campaign provably cannot touch a
        simulator (or the cache) outside its selected points.
        """
        from repro.analytical.model import estimate_workload
        from repro.analytical.triage import select_interest
        from repro.sweep.runner import Campaign, Outcome, SweepRunner

        start = time.perf_counter()
        estimates: list[Result | None] = []
        for work in works:
            try:
                estimates.append(estimate_workload(work,
                                                   base_cfg=self.cfg))
            except Exception:
                # Invalid shapes fail identically at either fidelity;
                # route them to the simulator for the authoritative
                # error outcome.
                estimates.append(None)
        plan = select_interest(works, estimates, interest)
        rerun = sorted(set(plan.selected) | set(plan.failed))
        runner = SweepRunner(
            cache=self.cache, workers=self._pool_width(parallel),
            timeout=self.timeout, base_cfg=self.cfg,
            max_cycles=self.max_cycles, engine=self.engine)
        sub = runner.run([works[i] for i in rerun], progress=progress,
                         cancel=cancel)
        by_index = dict(zip(rerun, sub.outcomes))
        outcomes = [
            by_index[i] if i in by_index else
            Outcome(point=work, status="ok", result=estimates[i])
            for i, work in enumerate(works)]
        campaign = Campaign(outcomes=outcomes,
                            seconds=time.perf_counter() - start,
                            obs=sub.obs, triage=plan.counts(),
                            interrupted=sub.interrupted)
        return campaign

    # -- campaign completeness ---------------------------------------------

    def audit(self, spec_or_points, name: str | None = None,
              ) -> CampaignAudit:
        """Diff a campaign (spec or workload list) against the
        session's result store: classify every point, report coverage
        and gaps (:class:`~repro.sweep.audit.CampaignAudit`).  The
        session's base config and engine are the audit context --
        exactly the cache-key ingredients :meth:`map` would use."""
        if self.cache is None:
            raise ValueError(
                "Session.audit requires a result cache; construct the "
                "session with cache=<dir>")
        from repro.sweep.audit import audit_campaign

        return audit_campaign(spec_or_points, self.cache,
                              base_cfg=self.cfg, engine=self.engine,
                              name=name)

    def backfill(self, audit_or_spec,
                 retry_budget: int | None = None,
                 progress: Callable | None = None,
                 ) -> tuple[BackfillPlan, Campaign]:
        """Plan and execute the gaps of an audit (or of a spec, which
        is audited first): stale points re-key automatically, failed
        points retry within ``retry_budget`` cumulative attempts
        (``None``: :data:`~repro.sweep.audit.DEFAULT_RETRY_BUDGET`).
        Returns ``(plan, campaign)`` -- re-audit to confirm coverage."""
        from repro.sweep.audit import (
            DEFAULT_RETRY_BUDGET,
            BackfillPlan,
            CampaignAudit,
        )

        audit = audit_or_spec if isinstance(audit_or_spec, CampaignAudit) \
            else self.audit(audit_or_spec)
        plan = BackfillPlan(audit, retry_budget=DEFAULT_RETRY_BUDGET
                            if retry_budget is None else retry_budget)
        return plan, plan.execute(self, progress=progress)

    # -- helpers -----------------------------------------------------------

    def _pool_width(self, parallel: bool | int | None) -> int | None:
        if parallel is None:
            return self.workers
        if parallel is True:
            return None              # all cores
        if parallel is False:
            return 1                 # serial, in-process
        return int(parallel)

    def _build_cfg(self) -> CoreConfig | None:
        """Session config for ad-hoc builds, with the engine applied
        (``fresh``: the session's base config must not be mutated)."""
        from repro.api.execute import apply_engine

        return apply_engine(self.cfg, self.engine, fresh=True)
