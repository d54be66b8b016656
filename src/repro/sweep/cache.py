"""Content-addressed on-disk cache for sweep results.

Layout (one directory per store):

* ``shards/<pp>.jsonl`` -- the **sharded** result store, where ``<pp>``
  is the first :data:`SHARD_PREFIX_LEN` hex characters of the record's
  content-address.  Append-only, one JSON record per completed point:
  ``{"key", "version", "point", "seconds", "result"}``, where
  ``result`` is the one canonical schema of
  :meth:`repro.api.result.Result.to_dict`.  Each append is a single
  ``write`` of one line to a file opened in append mode, so cooperating
  writer processes -- a campaign parent per host -- interleave at line
  granularity without any lock file; the key is content-derived, so
  a record duplicated by two racing hosts is benign (same payload,
  last one wins on load) and :meth:`verify` can prove it.
* ``failures.jsonl`` -- the most recent *failed* outcome per key
  (``status`` ``"error"``/``"timeout"``, the message, and a cumulative
  ``attempts`` counter).  Failures are never served as results --
  errors and timeouts are retried on the next campaign exactly as
  before -- but recording them makes a campaign auditable from the
  store alone (:mod:`repro.sweep.audit` classifies and budgets
  retries from this file).

The key is the SHA-256 of the canonicalized point, the package
``__version__``, and the canonicalized base config (when one is in
effect), so a version bump or a changed baseline configuration
invalidates every entry without any explicit flush.

Malformed lines (torn tail from a killed run, or bit rot) are *counted*
on load -- :attr:`ResultCache.corrupt_lines`, warned about once -- so
an audit can surface them instead of the store silently pretending the
record never existed.  A well-formed line whose ``result`` payload is
not the current schema (:func:`record_result`) is kept for the audit,
which classifies it ``stale-schema``, but a lookup treats it as a miss,
so the point re-runs and its new record supersedes the bad one.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
import time
import warnings
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Iterator

from repro.api.result import RESULT_SCHEMA, Result
from repro.api.workloads import Workload
from repro.core.config import CoreConfig

FAILURES_FILE = "failures.jsonl"
SHARDS_DIR = "shards"

#: Hex characters of the key that name a record's shard file (2 -> up
#: to 256 shards, plenty of append parallelism for cooperating hosts
#: while keeping directory listings small).
SHARD_PREFIX_LEN = 2


def package_version() -> str:
    """The ``repro.__version__`` baked into every cache key (lazy to
    avoid a circular import; shared by every cache-writing front door)."""
    from repro import __version__
    return __version__


def config_canonical(cfg: CoreConfig | None) -> dict | None:
    """Plain-type dict of a config, stable across processes."""
    if cfg is None:
        return None
    data = {}
    for f in dataclass_fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "fpu_latency":
            value = {ic.name: lat for ic, lat in sorted(
                value.items(), key=lambda item: item[0].name)}
        data[f.name] = value
    return data


def point_key(point: Workload, version: str,
              base_cfg: CoreConfig | None = None,
              engine: str | None = None) -> str:
    """SHA-256 content address of one (point, version, base config,
    execution engine).

    The engine never changes the simulated numbers (the cycle-accurate
    engines are bit-identical by contract), but it *is* part of the
    key: a cache entry must always say which engine produced it, so an
    engine-choice bug can be bisected from cached campaigns alone.
    """
    payload = {
        "point": point.canonical(),
        "version": version,
        "base_cfg": config_canonical(base_cfg),
        "engine": engine or (base_cfg.engine if base_cfg else "auto"),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def append_jsonl(path: Path, record: dict) -> None:
    """Append ``record`` to a JSONL file as one line, in one ``write()``
    on an ``O_APPEND`` descriptor, so appends from cooperating processes
    interleave at line granularity on local filesystems.

    A file whose last byte is not a newline ends in a torn line (a crash
    mid-write, a full disk).  A torn line that is not a JSON object is
    cut off before the record is written, so no malformed line is left
    mid-file; one that is gets its newline.  The tail repair and the
    write hold an exclusive ``flock``: another appender's write in
    progress would otherwise look like a torn tail.  This is the one
    append path of the result store, its failure log and the job
    journal.

    No process forks while an append holds its descriptor (see
    :data:`_APPEND_LOCK`): a forked worker would inherit the locked
    descriptor and keep the ``flock`` held after this close, and every
    later append to the file would block for the worker's lifetime.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    with _APPEND_LOCK:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close below
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = os.pread(fd, size, 0)    # only after a crash
                start = data.rfind(b"\n") + 1
                if _is_object(data[start:]):
                    line = b"\n" + line
                else:
                    os.ftruncate(fd, start)
            os.write(fd, line)
        finally:
            os.close(fd)


def _is_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw), dict)
    except ValueError:
        return False


#: Held by :func:`append_jsonl` from open to close, and by ``os.fork``
#: (the pool's worker start) around the fork, so a child never inherits
#: an append's descriptor.
_APPEND_LOCK = threading.Lock()
os.register_at_fork(before=_APPEND_LOCK.acquire,
                    after_in_parent=_APPEND_LOCK.release,
                    after_in_child=_APPEND_LOCK.release)


class SchemaError(ValueError):
    """A store record whose ``result`` payload is not the current
    canonical schema."""


def record_result(record: dict) -> Result:
    """The store's one schema check: parse a record's ``result``.

    Raises :class:`SchemaError` naming why the payload is not the
    current canonical schema: not a dict, a missing or other ``schema``
    stamp (a pre-1.5 record), or a payload that does not parse (a
    truncated record).  Lookups treat such a record as a miss; the
    audit classifies it ``stale-schema``.
    """
    payload = record.get("result")
    if not isinstance(payload, dict):
        raise SchemaError(
            f"result payload is {type(payload).__name__}, not a dict")
    if payload.get("schema") != RESULT_SCHEMA:
        raise SchemaError(
            f"pre-1.5 record (schema={payload.get('schema')!r})")
    try:
        return Result.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"unparseable result: {type(exc).__name__}: {exc}") from exc


def _jsonl_lines(path: Path
                 ) -> Iterator[tuple[int, str, dict | bool | None]]:
    """``(line number, line, record)`` for every non-blank line of one
    JSONL file of the store: the one reader of loading and
    :meth:`ResultCache.verify`.  ``record`` is falsy when the line is
    not a JSON object with a ``key``: False for the file's last line
    without its newline (a torn append, which the next append cuts
    off), None otherwise (bit rot)."""
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                record["key"]
            except (json.JSONDecodeError, TypeError, KeyError):
                record = None if raw.endswith("\n") else False
            yield lineno, line, record


class ResultCache:
    """Keyed JSONL store; loads its index once, appends as results land."""

    @classmethod
    def coerce(cls, cache: "ResultCache | str | Path | None"):
        """One shared coercion for every front door: paths open a
        cache, existing instances and ``None`` pass through, anything
        else is rejected here rather than deep inside a campaign."""
        if cache is None or isinstance(cache, cls):
            return cache
        if isinstance(cache, str) or hasattr(cache, "__fspath__"):
            return cls(cache)
        raise TypeError(
            f"cache must be a ResultCache, a path, or None, got "
            f"{type(cache).__name__}")

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.shards_dir = self.root / SHARDS_DIR
        self.failures_path = self.root / FAILURES_FILE
        #: Malformed JSONL lines skipped while loading (torn tail from
        #: a killed run, bit rot); surfaced by audits.
        self.corrupt_lines = 0
        self._index: dict[str, dict] = {}
        self._failures: dict[str, dict] = {}
        self._load()

    # -- loading ----------------------------------------------------------

    def _record_files(self) -> list[Path]:
        """Every shard file of the store, in name order."""
        if not self.shards_dir.is_dir():
            return []
        return sorted(self.shards_dir.glob("*.jsonl"))

    def _load(self) -> None:
        for path in self._record_files():
            for record in self._parse_lines(path):
                self._index[record["key"]] = record
        if self.failures_path.exists():
            for record in self._parse_lines(self.failures_path):
                self._failures[record["key"]] = record
        if self.corrupt_lines:
            warnings.warn(
                f"result cache {self.root}: skipped "
                f"{self.corrupt_lines} malformed JSONL line(s); run "
                f"`repro audit --verify-store` for a full report",
                stacklevel=2)

    def _parse_lines(self, path: Path) -> Iterator[dict]:
        """Yield well-formed records of one JSONL file, counting (not
        silently dropping) every malformed line."""
        for _, _, record in _jsonl_lines(path):
            if not record:
                self.corrupt_lines += 1
            else:
                yield record

    # -- lookups ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> Result | None:
        """The cached result under ``key``; ``None`` on a miss, which
        includes a record that fails :func:`record_result`."""
        record = self._index.get(key)
        if record is None:
            return None
        try:
            return record_result(record)
        except SchemaError:
            return None

    def get_record(self, key: str) -> dict | None:
        return self._index.get(key)

    def records(self) -> Iterator[dict]:
        """Every loaded result record (the audit walks these to match
        stale entries by canonical point)."""
        return iter(self._index.values())

    def get_failure(self, key: str) -> dict | None:
        """Most recent failure record for ``key`` (``None`` if the key
        never failed, or succeeded since)."""
        if key in self._index:
            return None
        return self._failures.get(key)

    # -- writes -----------------------------------------------------------

    def _shard_path(self, key: str) -> Path:
        return self.shards_dir / f"{key[:SHARD_PREFIX_LEN]}.jsonl"

    def _append(self, path: Path, record: dict) -> None:
        append_jsonl(path, record)

    def put(self, key: str, point: Workload, result: Result,
            seconds: float, version: str) -> None:
        record = {
            "key": key,
            "version": version,
            "point": point.canonical(),
            "seconds": seconds,
            "result": result.to_dict(),
        }
        # Observability payloads (``meta["obs"]``) are opt-in run
        # annotations; stripping them keeps cached records bit-identical
        # whether or not the producing run had telemetry enabled.
        meta = record["result"].get("meta")
        if isinstance(meta, dict):
            meta.pop("obs", None)
        self._append(self._shard_path(key), record)
        self._index[key] = record
        self._failures.pop(key, None)

    def put_failure(self, key: str, point: Workload, status: str,
                    error: str | None, seconds: float,
                    version: str) -> None:
        """Record a failed outcome (``"error"``/``"timeout"``) so audits
        can classify and retry-budget it from the store alone.  The
        ``attempts`` counter accumulates across campaigns; a later
        success supersedes the failure entirely."""
        previous = self._failures.get(key)
        record = {
            "key": key,
            "version": version,
            "point": point.canonical(),
            "status": status,
            "error": (error or "")[:2000],  # keep the store line-sized
            "seconds": seconds,
            "attempts": (previous["attempts"] if previous else 0) + 1,
        }
        self._append(self.failures_path, record)
        self._failures[key] = record

    # -- maintenance ------------------------------------------------------

    def prune(self, max_bytes: int | None = None,
              max_age_days: float | None = None, *,
              dry_run: bool = False) -> dict:
        """Evict cold shards until the store fits its budgets.

        Eviction is LRU at *shard-file* granularity, ordered by shard
        mtime (appends touch the mtime, so recently-written shards are
        the warm ones; in-memory reads deliberately do not count).
        Two independent budgets, either or both:

        * ``max_age_days`` -- drop every shard untouched for longer;
        * ``max_bytes`` -- then drop oldest-first until the remaining
          shard bytes fit.

        **Failure-log awareness**: a success record supersedes any
        older failure under the same key (:meth:`get_failure` hides
        it).  Evicting that success would resurface the phantom
        failure, so prune rewrites ``failures.jsonl`` dropping every
        record whose key loses its success here -- those points return
        to plain cache misses, not to bogus retry-budget debt.

        ``dry_run`` computes the full report without touching disk.
        Returns ``{"evicted_shards", "evicted_records",
        "evicted_bytes", "kept_shards", "kept_bytes",
        "dropped_failures", "dry_run"}``.

        Prune assumes cooperating writers are quiescent (the serving
        process owns its store); racing an append against an eviction
        loses the appended record with the shard.
        """
        if max_bytes is None and max_age_days is None:
            raise ValueError(
                "prune needs max_bytes= and/or max_age_days=")
        shards = []
        for path in self._record_files():
            stat = path.stat()
            shards.append((stat.st_mtime, stat.st_size, path))
        shards.sort()  # oldest first
        now = time.time()
        evict: list[tuple[float, int, Path]] = []
        kept = list(shards)
        if max_age_days is not None:
            horizon = now - max_age_days * 86400.0
            evict = [s for s in kept if s[0] < horizon]
            kept = [s for s in kept if s[0] >= horizon]
        if max_bytes is not None:
            total = sum(size for _, size, _ in kept)
            while kept and total > max_bytes:
                oldest = kept.pop(0)
                evict.append(oldest)
                total -= oldest[1]
        evicted_keys = set()
        for _, _, path in evict:
            stem = path.stem
            evicted_keys.update(
                k for k in self._index if k.startswith(stem))
        # Walk the on-disk failure log, not the in-memory dict: a
        # success superseded its failure in memory at put() time, but
        # the line is still on disk and would resurface on reload once
        # the success is gone.
        dropped_failures: set[str] = set()
        kept_failures: list[dict] = []
        if evicted_keys and self.failures_path.exists():
            for record in self._parse_lines(self.failures_path):
                if record["key"] in evicted_keys:
                    dropped_failures.add(record["key"])
                else:
                    kept_failures.append(record)
        report = {
            "evicted_shards": sorted(p.name for _, _, p in evict),
            "evicted_records": len(evicted_keys),
            "evicted_bytes": sum(size for _, size, _ in evict),
            "kept_shards": len(kept),
            "kept_bytes": sum(size for _, size, _ in kept),
            "dropped_failures": len(dropped_failures),
            "dry_run": dry_run,
        }
        if dry_run or not evict:
            return report
        if dropped_failures:
            # Atomic rewrite: the log shrinks or the old one survives.
            tmp = self.failures_path.with_suffix(".jsonl.tmp")
            with open(tmp, "w") as sink:
                for record in kept_failures:
                    sink.write(json.dumps(record, sort_keys=True)
                               + "\n")
            os.replace(tmp, self.failures_path)
        for _, _, path in evict:
            path.unlink(missing_ok=True)
        for key in evicted_keys:
            self._index.pop(key, None)
            self._failures.pop(key, None)
        return report

    def verify(self) -> dict:
        """Re-parse every record file against the result schema.

        Returns a report::

            {"files", "records", "corrupt": [...], "torn_tail": [...],
             "invalid": [...], "duplicates": [...], "conflicts": [...],
             "orphans": [...], "failure_records", "ok": bool}

        * **corrupt** -- lines that are not JSON (file, line number);
        * **torn_tail** -- a malformed last line without its newline
          (an append cut short; benign: loading skips it and the next
          append cuts it off);
        * **invalid** -- records that fail :func:`record_result`;
        * **duplicates** -- keys appearing more than once with
          *identical* payloads (benign: racing cooperating writers);
        * **conflicts** -- keys appearing more than once with
          *differing* payloads (a real integrity violation);
        * **orphans** -- records filed in a shard whose name does not
          match their key prefix (a mis-filed append).

        ``ok`` is true when nothing but benign duplicates and torn tails
        was found.
        """
        seen: dict[str, str] = {}
        report: dict = {"files": 0, "records": 0, "corrupt": [],
                        "torn_tail": [], "invalid": [], "duplicates": [],
                        "conflicts": [], "orphans": [], "failure_records": 0}
        for path in self._record_files():
            report["files"] += 1
            name = str(path.relative_to(self.root))
            for lineno, line, record in _jsonl_lines(path):
                where = {"file": name, "line": lineno}
                if not record:
                    report["corrupt" if record is None
                           else "torn_tail"].append(where)
                    continue
                key = where["key"] = record["key"]
                report["records"] += 1
                try:
                    record_result(record)
                except SchemaError as exc:
                    report["invalid"].append(dict(where, error=str(exc)))
                if not key.startswith(path.stem):
                    report["orphans"].append(where)
                if key in seen:
                    bucket = "duplicates" if seen[key] == line \
                        else "conflicts"
                    report[bucket].append(where)
                else:
                    seen[key] = line
        if self.failures_path.exists():
            for lineno, _, record in _jsonl_lines(self.failures_path):
                if record is False:
                    report["torn_tail"].append(
                        {"file": FAILURES_FILE, "line": lineno})
                elif record is None or "status" not in record:
                    report["corrupt"].append(
                        {"file": FAILURES_FILE, "line": lineno})
                else:
                    report["failure_records"] += 1
        report["ok"] = not (report["corrupt"] or report["invalid"]
                            or report["conflicts"] or report["orphans"])
        return report
