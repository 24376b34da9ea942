"""A JSON-lines TCP front end for the query engine (stdlib only).

The wire protocol is deliberately minimal — one JSON object per line:

* a request is a :class:`repro.api.QueryBatch` envelope
  (``{"version": 1, "queries": [{...}, ...]}``);
* the response is the matching :class:`repro.api.BatchResult` envelope
  (``{"version": 1, "results": [...]}``), one line, in request-query order;
* ``{"op": "stats"}`` returns the engine's counters (plus a ``telemetry``
  metrics snapshot when telemetry is enabled), ``{"op": "ping"}`` answers
  ``{"ok": true}`` (liveness probes);
* any malformed request answers ``{"error": "..."}`` on its line — the
  connection survives, so one bad request cannot wedge a client's pipeline.

Requests from *different* connections coalesce into the same micro-batches:
every connection handler submits into the one shared :class:`QueryEngine`,
which is the whole point of serving from a long-lived process.

The module stays importable without a running loop; ``serve_forever`` is the
blocking entry point the CLI uses.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional

from ..api.serving import BatchResult, QueryBatch, WireError
from ..telemetry import get_telemetry
from .engine import QueryEngine

#: Generous per-line bound: a 4096-query batch envelope fits comfortably.
MAX_LINE_BYTES = 16 * 1024 * 1024


async def handle_connection(
    engine: QueryEngine,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client: a JSON request per line, a JSON response per line."""
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await _send(writer, {"error": "request line too long"})
                break
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            await _send(writer, await answer_request(engine, line))
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def answer_request(engine: QueryEngine, line: bytes) -> Dict[str, Any]:
    """The response object for one raw request line (never raises)."""
    try:
        payload = json.loads(line)
    except ValueError:
        return {"error": "request is not valid JSON"}
    if isinstance(payload, dict) and "op" in payload:
        return _answer_op(engine, payload)
    try:
        batch = QueryBatch.from_wire(payload)
        result = await engine.submit_batch(batch)
    except (WireError, ValueError) as error:
        return {"error": str(error)}
    return result.to_wire()


def _answer_op(engine: QueryEngine, payload: Dict[str, Any]) -> Dict[str, Any]:
    op = payload.get("op")
    if op == "ping":
        return {"ok": True}
    if op == "stats":
        # The metrics snapshot rides along when telemetry is on; clients that
        # only know the original {"stats": ...} shape keep working.
        reply: Dict[str, Any] = {"stats": engine.stats.as_dict()}
        telemetry = get_telemetry()
        if telemetry.enabled:
            reply["telemetry"] = telemetry.snapshot()
        return reply
    return {"error": f"unknown op {op!r}"}


async def _send(writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
    writer.write(json.dumps(payload).encode("utf-8") + b"\n")
    await writer.drain()


async def start_server(
    engine: QueryEngine, host: str = "127.0.0.1", port: int = 8642
) -> asyncio.AbstractServer:
    """Bind and return the listening server (caller owns its lifetime)."""

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        await handle_connection(engine, reader, writer)

    return await asyncio.start_server(handler, host, port, limit=MAX_LINE_BYTES)


def serve_forever(
    engine: QueryEngine, host: str = "127.0.0.1", port: int = 8642, ready=None
) -> None:
    """Run the server until interrupted (the ``repro-kgc serve`` entry point).

    ``ready``, when given, is called with the bound ``(host, port)`` once the
    socket is listening — tests use it to learn an OS-assigned port.
    """

    async def main() -> None:
        server = await start_server(engine, host, port)
        if ready is not None:
            ready(server.sockets[0].getsockname()[:2])
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


# --------------------------------------------------------------------------- client
def request_over_socket(
    host: str, port: int, payload: Dict[str, Any], timeout: Optional[float] = 30.0
) -> Dict[str, Any]:
    """One request/response round trip over a fresh connection (blocking)."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as connection:
        connection.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        chunks: List[bytes] = []
        while True:
            chunk = connection.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        raise ConnectionError(f"server at {host}:{port} closed without answering")
    return json.loads(raw.decode("utf-8"))


def query_server(
    host: str, port: int, batch: QueryBatch, timeout: Optional[float] = 30.0
) -> BatchResult:
    """Send one batch to a serving process and parse the response envelope."""
    response = request_over_socket(host, port, batch.to_wire(), timeout=timeout)
    if isinstance(response, dict) and "error" in response:
        raise WireError(response["error"])
    return BatchResult.from_wire(response)
