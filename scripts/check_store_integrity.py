#!/usr/bin/env python
"""Validate a result store (sweep cache) end to end.

CI runs this after every leg that writes to a cache directory, so a
schema regression, a torn write, or a mis-filed shard fails loudly
instead of silently poisoning later cache hits.  Checks (via
``repro.sweep.cache.ResultCache.verify``):

* every JSONL line parses and its ``result`` payload round-trips
  through the canonical :class:`repro.api.Result` schema;
* no key appears twice with *conflicting* payloads (identical
  duplicates -- racing cooperating writers -- are reported but benign,
  and fail only under ``--strict``, as does a torn last line);
* every sharded record lives in the shard file matching its key
  prefix (no orphans);
* failure-log records carry a key and a status.

Usage::

    python scripts/check_store_integrity.py CACHE_DIR [more ...]
    python scripts/check_store_integrity.py --strict CACHE_DIR
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path


def check_store(root: str, strict: bool = False) -> list[str]:
    """Return a list of human-readable violations (empty = ok)."""
    from repro.sweep.cache import ResultCache

    if not Path(root).is_dir():
        return [f"{root}: not a directory (no store written?)"]
    with warnings.catch_warnings():
        # verify() re-reports malformed lines with file/line detail;
        # the load-time summary warning would be noise here.
        warnings.simplefilter("ignore")
        cache = ResultCache(root)
    report = cache.verify()
    problems = []
    for bucket in ("corrupt", "invalid", "conflicts", "orphans"):
        for entry in report[bucket]:
            problems.append(f"{root}: {bucket[:-1]} record: {entry}")
    if strict:
        for entry in report["duplicates"]:
            problems.append(f"{root}: duplicate key (strict): {entry}")
        for entry in report["torn_tail"]:
            problems.append(f"{root}: torn tail (strict): {entry}")
    print(f"{root}: {report['records']} record(s) in "
          f"{report['files']} shard file(s), "
          f"{report['failure_records']} failure record(s), "
          f"{len(report['duplicates'])} identical duplicate(s)")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stores", nargs="+",
                        help="cache directories to validate")
    parser.add_argument("--strict", action="store_true",
                        help="fail on identical-duplicate keys too")
    args = parser.parse_args(argv)

    failures = []
    for store in args.stores:
        failures.extend(check_store(store, strict=args.strict))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} integrity violation(s)", file=sys.stderr)
        return 1
    print("store integrity: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
