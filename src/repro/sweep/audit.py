"""Campaign completeness: audit a sweep against the result store.

The content-addressed cache makes re-runs cheap, but by itself nothing
says whether a campaign is *complete*.  This module diffs a
:class:`~repro.sweep.spec.SweepSpec` (or an explicit workload list)
against a :class:`~repro.sweep.cache.ResultCache` and classifies every
point into one of :data:`GAP_CLASSES`:

``ok``
    a schema-valid record exists under the point's current key;
``missing``
    the store has never seen the point (in this campaign context);
``error`` / ``timeout``
    the store's failure log records the point's last outcome (with a
    cumulative attempt count, so retries can be budgeted);
``stale-version``
    a record for the *same canonical point* exists, but was computed
    under a different package version -- its key no longer matches, so
    the point must be re-simulated (re-keyed) to count;
``stale-schema``
    a record exists but its ``result`` payload is not the current
    canonical schema (a pre-1.5 record, or an unparseable payload);
``stale-fidelity``
    a schema-valid record exists under the point's key, but its
    fidelity does not match the audit context: an analytical estimate
    (``meta["fidelity"] == "analytical"``) where the campaign expects a
    cycle-accurate record, or the reverse.  A campaign audited at cycle
    fidelity therefore never counts an analytical record as ``ok``.

:class:`CampaignAudit` carries the per-point classification, the
coverage fraction, per-axis breakdowns (kernel, variant, engine,
num_clusters) and a machine-readable gap report
(:meth:`CampaignAudit.to_dict`, schema :data:`AUDIT_SCHEMA`).
:class:`BackfillPlan` orders the gaps into a
:meth:`~repro.api.session.Session.map` execution -- stale points are
re-keyed automatically (keys always use the current version), failed
points are retried within a bounded budget -- so any interrupted or
multi-host campaign is resumable from the store alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api.workloads import Workload
from repro.core.config import CoreConfig
from repro.sweep.cache import (
    ResultCache,
    SchemaError,
    package_version,
    point_key,
    record_result,
)

#: Schema identifier stamped into every serialized audit report.
AUDIT_SCHEMA = "repro-audit/v1"

#: Every classification a point can receive, in report order.
GAP_CLASSES = ("ok", "missing", "error", "timeout", "stale-version",
               "stale-schema", "stale-fidelity")

#: Axes of the coverage breakdown table.
AUDIT_AXES = ("kernel", "variant", "engine", "num_clusters")

#: Backfill execution order: cheap certain wins first (never-run
#: points), then re-keys of stale records, then retries of points that
#: already failed at least once.
BACKFILL_ORDER = ("missing", "stale-version", "stale-schema",
                  "stale-fidelity", "timeout", "error")

#: Failed points are retried by backfills at most this many times
#: (cumulative across campaigns) unless overridden.
DEFAULT_RETRY_BUDGET = 3


def _schema_issue(record: dict) -> str | None:
    """Why a store record fails :func:`~repro.sweep.cache.record_result`
    (``None`` when it passes)."""
    try:
        record_result(record)
    except SchemaError as exc:
        return str(exc)
    return None


def _excerpt(text: str | None, limit: int = 200) -> str | None:
    """Last non-empty line of a traceback/message, display-sized."""
    if not text:
        return None
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    tail = lines[-1] if lines else text.strip()
    return tail[:limit]


@dataclass(frozen=True)
class PointAudit:
    """One point's classification against the store."""

    point: Workload
    key: str
    status: str                  # one of GAP_CLASSES
    detail: str | None = None    # stale version / failure excerpt
    attempts: int = 0            # recorded failed attempts

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> dict:
        """JSON-ready form (one row of the audit report)."""
        return {
            "label": self.point.label,
            "point": self.point.canonical(),
            "key": self.key,
            "status": self.status,
            "detail": self.detail,
            "attempts": self.attempts,
        }


@dataclass
class CampaignAudit:
    """Classification of every point of one campaign, plus roll-ups."""

    name: str
    version: str
    points: list[PointAudit] = field(default_factory=list)
    #: Campaign-level engine context (a per-point override still wins);
    #: mirrors the cache-key ingredient.
    engine: str = "auto"
    #: Malformed store lines skipped on load (the corrupt bucket).
    corrupt_lines: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def ok_count(self) -> int:
        return sum(1 for p in self.points if p.ok)

    @property
    def coverage(self) -> float:
        """Fraction of points with a current, schema-valid record
        (1.0 for an empty campaign: nothing is missing)."""
        return self.ok_count / self.total if self.points else 1.0

    @property
    def complete(self) -> bool:
        return self.ok_count == self.total

    @property
    def gaps(self) -> list[PointAudit]:
        """Every non-ok point, in spec order."""
        return [p for p in self.points if not p.ok]

    def counts(self) -> dict[str, int]:
        """Points per classification, every class always present."""
        counts = {cls: 0 for cls in GAP_CLASSES}
        for p in self.points:
            counts[p.status] += 1
        return counts

    def _axis_value(self, audit: PointAudit, axis: str) -> str:
        if axis == "kernel":
            return audit.point.kernel
        if axis == "variant":
            return audit.point.variant
        if axis == "engine":
            return audit.point.engine or self.engine
        if axis == "num_clusters":
            return str(audit.point.num_clusters)
        raise ValueError(
            f"unknown audit axis {axis!r}; choose from: "
            f"{', '.join(AUDIT_AXES)}")

    def by_axis(self, axis: str) -> dict[str, dict]:
        """Per-value coverage along one of :data:`AUDIT_AXES`
        (insertion-ordered by first appearance in the spec)."""
        table: dict[str, dict] = {}
        for audit in self.points:
            value = self._axis_value(audit, axis)
            row = table.setdefault(value, {"ok": 0, "total": 0})
            row["total"] += 1
            row["ok"] += audit.ok
        for row in table.values():
            row["coverage"] = round(row["ok"] / row["total"], 6)
        return table

    def axes(self) -> dict[str, dict]:
        return {axis: self.by_axis(axis) for axis in AUDIT_AXES}

    def to_dict(self) -> dict:
        """The machine-readable audit report (schema
        :data:`AUDIT_SCHEMA`); ``gaps`` lists only the non-ok points,
        ``points`` the full classification."""
        return {
            "schema": AUDIT_SCHEMA,
            "campaign": self.name,
            "version": self.version,
            "engine": self.engine,
            "total": self.total,
            "coverage": round(self.coverage, 6),
            "complete": self.complete,
            "counts": self.counts(),
            "corrupt_lines": self.corrupt_lines,
            "axes": self.axes(),
            "gaps": [p.record() for p in self.gaps],
            "points": [p.record() for p in self.points],
        }


def audit_campaign(spec_or_points, cache: ResultCache | str,
                   base_cfg: CoreConfig | None = None,
                   engine: str | None = None,
                   version: str | None = None,
                   name: str | None = None) -> CampaignAudit:
    """Diff a campaign against a result store.

    ``spec_or_points`` is a :class:`~repro.sweep.spec.SweepSpec` or an
    explicit workload list; ``base_cfg``/``engine`` set the campaign
    context exactly as they would for :class:`~repro.sweep.runner.
    SweepRunner` (they are cache-key ingredients); ``version`` defaults
    to the installed package version.
    """
    from repro.sweep.spec import SweepSpec

    if isinstance(spec_or_points, SweepSpec):
        points = spec_or_points.points()
        name = name or spec_or_points.name
    else:
        points = list(spec_or_points)
    cache = ResultCache.coerce(cache)
    if cache is None:
        raise ValueError("audit requires a result cache")
    version = version or package_version()
    effective_engine = engine or (base_cfg.engine if base_cfg else "auto")

    # Records grouped by canonical point, for stale detection: a point
    # whose current key misses may still have been computed under an
    # older version (different key, same canonical form).
    by_canonical: dict[str, list[dict]] = {}
    for record in cache.records():
        blob = json.dumps(record.get("point"), sort_keys=True)
        by_canonical.setdefault(blob, []).append(record)

    audits = []
    for point in points:
        key = point_key(point, version, base_cfg, engine=engine)
        audits.append(_classify(point, key, cache, version, by_canonical,
                                effective_engine))
    return CampaignAudit(name=name or "campaign", version=version,
                         points=audits, engine=effective_engine,
                         corrupt_lines=cache.corrupt_lines)


def _classify(point: Workload, key: str, cache: ResultCache,
              version: str, by_canonical: dict,
              campaign_engine: str = "auto") -> PointAudit:
    record = cache.get_record(key)
    if record is not None:
        issue = _schema_issue(record)
        if issue:
            return PointAudit(point, key, "stale-schema", detail=issue)
        if record.get("version") != version:
            # Defensive: the key embeds the version, so this only
            # happens when a record lies about its own provenance.
            return PointAudit(point, key, "stale-version",
                              detail=f"record claims version "
                                     f"{record.get('version')!r}")
        # Fidelity gate: the record's own payload must match what this
        # campaign context would compute.  Like the version check this
        # is defensive -- the engine is a key ingredient -- but it is
        # what stops an analytical estimate (however it got under this
        # key: a hand-merged store, a copied cache) from masquerading
        # as a cycle-accurate result, and vice versa.
        recorded = (record.get("result") or {}).get("meta", {}) \
            .get("fidelity")
        expect = (point.engine or campaign_engine) == "analytical"
        if (recorded == "analytical") != expect:
            return PointAudit(
                point, key, "stale-fidelity",
                detail=f"record fidelity {recorded or 'cycle'!r}, "
                       f"campaign expects "
                       f"{'analytical' if expect else 'cycle'!r}")
        return PointAudit(point, key, "ok")

    # No record under the current key: look for the same canonical
    # point computed in another era (stale) before calling it missing.
    stale = None
    for candidate in by_canonical.get(
            json.dumps(point.canonical(), sort_keys=True), ()):
        issue = _schema_issue(candidate)
        if issue is not None:
            return PointAudit(point, key, "stale-schema", detail=issue)
        if candidate.get("version") != version:
            stale = PointAudit(
                point, key, "stale-version",
                detail=f"cached at version "
                       f"{candidate.get('version')!r}")
        # A same-version candidate under a different key was computed
        # in a different context (base config / engine): for *this*
        # campaign the point is simply missing.
    if stale is not None:
        return stale

    failure = cache.get_failure(key)
    if failure is not None:
        return PointAudit(point, key, failure.get("status", "error"),
                          detail=_excerpt(failure.get("error")),
                          attempts=int(failure.get("attempts", 1)))
    return PointAudit(point, key, "missing")


@dataclass
class BackfillPlan:
    """The gaps of an audit, ordered for execution.

    Points are grouped by :data:`BACKFILL_ORDER` (never-run points
    first, then stale re-keys, then bounded retries of failures) and
    keep spec order within a group.  Failed points whose cumulative
    ``attempts`` meet ``retry_budget`` are *abandoned* -- listed, never
    silently dropped -- so a persistently broken point cannot make a
    campaign loop forever.
    """

    audit: CampaignAudit
    retry_budget: int = DEFAULT_RETRY_BUDGET

    def __post_init__(self) -> None:
        if self.retry_budget < 1:
            raise ValueError(
                f"retry_budget must be >= 1, got {self.retry_budget}")

    def _retryable(self, gap: PointAudit) -> bool:
        if gap.status not in ("error", "timeout"):
            return True
        return gap.attempts < self.retry_budget

    @property
    def entries(self) -> list[PointAudit]:
        """The gaps this plan will execute, in execution order."""
        gaps = self.audit.gaps
        return [g for status in BACKFILL_ORDER
                for g in gaps
                if g.status == status and self._retryable(g)]

    @property
    def abandoned(self) -> list[PointAudit]:
        """Failures out of retry budget (reported, not executed)."""
        return [g for g in self.audit.gaps if not self._retryable(g)]

    @property
    def points(self) -> list[Workload]:
        return [e.point for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "schema": "repro-backfill/v1",
            "campaign": self.audit.name,
            "retry_budget": self.retry_budget,
            "planned": len(self.entries),
            "entries": [e.record() for e in self.entries],
            "abandoned": [e.record() for e in self.abandoned],
        }

    def describe(self) -> str:
        """Human-readable plan (the ``--dry-run`` output)."""
        lines = [f"backfill plan for {self.audit.name!r}: "
                 f"{len(self.entries)} point(s), retry budget "
                 f"{self.retry_budget}"]
        for entry in self.entries:
            extra = f" [{entry.detail}]" if entry.detail else ""
            attempt = f" (attempt {entry.attempts + 1})" \
                if entry.attempts else ""
            lines.append(f"  {entry.status:14s} {entry.point.label}"
                         f"{attempt}{extra}")
        for entry in self.abandoned:
            lines.append(f"  {'abandoned':14s} {entry.point.label} "
                         f"({entry.attempts} failed attempts >= budget "
                         f"{self.retry_budget})")
        if not self.entries and not self.abandoned:
            lines.append("  nothing to do: campaign is complete")
        return "\n".join(lines)

    def execute(self, session, progress=None):
        """Run the plan through ``session.map`` (stale points re-key
        automatically: keys always embed the current version).  Returns
        the :class:`~repro.sweep.runner.Campaign` of outcomes."""
        return session.map(self.points, progress=progress)
