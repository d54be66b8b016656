"""Asyncio HTTP front end: stdlib-only framing over ``asyncio`` streams.

No web framework: requests are parsed straight off the stream reader
(request line, headers, ``Content-Length`` body) and every response
closes its connection, which keeps the server loop small enough to
audit.  Endpoints (all JSON, wire schema of results =
``Result.to_dict()``):

=====================================  ==================================
``POST /v1/jobs``                      submit one workload or a batch
``GET  /v1/jobs/{id}``                 job status + per-point results
``GET  /v1/jobs/{id}/events``          NDJSON progress stream
``POST /v1/jobs/{id}/cancel``          cooperative cancellation
``GET  /v1/healthz``                   capacity; 503 once shut down
``GET  /v1/metrics``                   obs registry + ``serve.*`` gauges
=====================================  ==================================

See ``docs/serve.md`` for the full API reference with curl examples.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.api.workloads import FieldError, Workload
from repro.obs.metrics import METRICS
from repro.serve.scheduler import QueueFull, Scheduler

__all__ = ["ReproServer"]

_MAX_BODY = 8 * 1024 * 1024
#: Poll interval of the ``/events`` stream (the scheduler appends to
#: ``Job.events`` from the pool's thread; the stream tails the list).
_EVENT_POLL_SECONDS = 0.05


def _parse_workloads(body: dict) -> list[Workload]:
    """Accept ``{"workload": {...}}`` or ``{"workloads": [{...}]}``;
    a rejected field is named as ``workloads[i].<field>``."""
    if "workload" in body:
        named = [("workload", body["workload"])]
    elif "workloads" in body:
        raw = body["workloads"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("'workloads' must be a non-empty list")
        named = [(f"workloads[{i}]", item) for i, item in enumerate(raw)]
    else:
        raise ValueError("body needs 'workload' or 'workloads'")
    workloads = []
    for where, item in named:
        try:
            workloads.append(Workload.from_canonical(item))
        except FieldError as exc:
            raise ValueError(f"{where}.{exc.field}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return workloads


class ReproServer:
    """One scheduler behind an asyncio TCP listener.

    ``prune_interval`` (seconds) arms a background task that calls
    :meth:`ResultCache.prune` with the given budgets, so long-running
    services do not grow their store unbounded; a prune that raises is
    counted as ``serve.prune_errors`` and the server keeps serving.
    """

    def __init__(self, scheduler: Scheduler,
                 host: str = "127.0.0.1", port: int = 8023, *,
                 prune_interval: float | None = None,
                 prune_max_bytes: int | None = None,
                 prune_max_age_days: float | None = None,
                 ready_file: str | Path | None = None):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.prune_interval = prune_interval
        self.prune_max_bytes = prune_max_bytes
        self.prune_max_age_days = prune_max_age_days
        self.ready_file = Path(ready_file) if ready_file else None
        self._server: asyncio.AbstractServer | None = None
        self._pruner: asyncio.Task | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.prune_interval:
            self._pruner = asyncio.get_running_loop().create_task(
                self._prune_loop())
        if self.ready_file is not None:
            import os
            self.ready_file.write_text(json.dumps(
                {"host": self.host, "port": self.port,
                 "pid": os.getpid()}))

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._pruner is not None:
            self._pruner.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.scheduler.shutdown(wait=False)

    async def _prune_loop(self) -> None:
        while True:
            await asyncio.sleep(self.prune_interval)
            try:
                self.scheduler.session.cache.prune(
                    max_bytes=self.prune_max_bytes,
                    max_age_days=self.prune_max_age_days)
            except Exception:
                # Keep serving; /v1/metrics counts the failures.
                self.scheduler.note_prune_error()

    # -- request handling ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _ = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = min(int(value.strip()), _MAX_BODY)
                except ValueError:
                    length = 0
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = path.split("?", 1)[0].rstrip("/")
        if method == "GET" and path == "/v1/healthz":
            from repro import __version__
            health = self.scheduler.health()
            return await self._json(writer, 200 if health["ok"] else 503,
                                    {**health, "version": __version__})
        if method == "GET" and path == "/v1/metrics":
            return await self._json(writer, 200, {
                "serve": self.scheduler.metrics(),
                "metrics": METRICS.snapshot()})
        if method == "POST" and path == "/v1/jobs":
            return await self._submit(body, writer)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if method == "GET" and rest.endswith("/events"):
                return await self._events(rest[:-len("/events")]
                                          .rstrip("/"), writer)
            if method == "POST" and rest.endswith("/cancel"):
                return await self._cancel(rest[:-len("/cancel")]
                                          .rstrip("/"), writer)
            if method == "GET":
                return await self._job(rest, writer)
        await self._json(writer, 404, {"error": f"no route {method} "
                                                f"{path}"})

    async def _submit(self, body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
            workloads = _parse_workloads(payload)
            priority = int(payload.get("priority", 10))
            timeout = payload.get("timeout")
            timeout = float(timeout) if timeout is not None else None
        except (ValueError, TypeError, KeyError) as exc:
            return await self._json(writer, 400, {"error": str(exc)})
        try:
            job = self.scheduler.submit(workloads, priority=priority,
                                        timeout=timeout)
        except QueueFull as exc:
            return await self._json(writer, 429, {"error": str(exc)})
        except RuntimeError as exc:
            return await self._json(writer, 503, {"error": str(exc)})
        await self._json(writer, 201, job.view(results=job.terminal))

    async def _job(self, job_id: str,
                   writer: asyncio.StreamWriter) -> None:
        job = self.scheduler.store.get(job_id)
        if job is None:
            return await self._json(writer, 404,
                                    {"error": f"unknown job {job_id}"})
        await self._json(writer, 200, job.view())

    async def _cancel(self, job_id: str,
                      writer: asyncio.StreamWriter) -> None:
        job = self.scheduler.store.get(job_id)
        if job is None:
            return await self._json(writer, 404,
                                    {"error": f"unknown job {job_id}"})
        if job.terminal:
            return await self._json(writer, 409, {
                "error": f"job is already {job.status}",
                "id": job.id, "status": job.status})
        job = self.scheduler.cancel(job_id)
        await self._json(writer, 200,
                         {"id": job.id, "status": job.status})

    async def _events(self, job_id: str,
                      writer: asyncio.StreamWriter) -> None:
        job = self.scheduler.store.get(job_id)
        if job is None:
            return await self._json(writer, 404,
                                    {"error": f"unknown job {job_id}"})
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            # Job.events only ever appends; tail it by index.
            while sent < len(job.events):
                event = job.events[sent]
                sent += 1
                writer.write(json.dumps(event, sort_keys=True)
                             .encode() + b"\n")
            await writer.drain()
            if job.terminal and sent >= len(job.events):
                return
            await asyncio.sleep(_EVENT_POLL_SECONDS)

    @staticmethod
    async def _json(writer: asyncio.StreamWriter, status: int,
                    payload: dict) -> None:
        reasons = {200: "OK", 201: "Created", 400: "Bad Request",
                   404: "Not Found", 409: "Conflict",
                   429: "Too Many Requests",
                   503: "Service Unavailable"}
        body = json.dumps(payload, sort_keys=True).encode()
        writer.write(
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        await writer.drain()
