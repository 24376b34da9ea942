"""The TCP JSON-lines serving protocol: round trips, errors, live sockets."""

import asyncio
import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.api import BatchResult, Query, QueryBatch, WireError
from repro.models import ModelConfig, make_model
from repro.serve import QueryEngine, query_server, serve_forever, start_server
from repro.serve.server import answer_request
from repro.telemetry import Telemetry, scoped


def build_engine(**kwargs):
    model = make_model("TransE", 8, 4, ModelConfig(dim=8, seed=3))
    model.train_mode(False)
    return QueryEngine(model, **kwargs)


def run_session(engine, *lines):
    """Answer each request line against an in-process engine, no sockets.

    Returns the response *objects* ``answer_request`` would serialize.
    """

    async def session():
        return [await answer_request(engine, line) for line in lines]

    return asyncio.run(session())


# ------------------------------------------------------------------ protocol
def test_query_batch_round_trip_over_the_protocol():
    engine = build_engine()
    batch = QueryBatch.of(Query.tail(0, 1, k=3), Query.head(2, 5, k=3))
    [reply] = run_session(engine, json.dumps(batch.to_wire()))
    response = BatchResult.from_wire(reply)
    assert len(response.results) == 2
    assert response.results[0].side == "tail" and response.results[1].side == "head"
    row = np.asarray(engine.scorer.score_all_tails(0, 1), dtype=np.float64)
    order = np.lexsort((np.arange(len(row)), -row))[:3]
    assert list(response.results[0].entities) == list(order)


def test_malformed_json_gets_an_error_and_the_session_continues():
    engine = build_engine()
    good = json.dumps(QueryBatch.of(Query.tail(0, 0, k=2)).to_wire())
    bad_json, bad_batch, reply = run_session(
        engine, "{not json", json.dumps({"version": 1, "queries": []}), good
    )
    assert "JSON" in bad_json["error"]
    assert "error" in bad_batch
    assert "results" in reply                          # still serving afterwards


def test_protocol_version_too_new_is_rejected():
    engine = build_engine()
    wire = QueryBatch.of(Query.tail(0, 0)).to_wire()
    wire["version"] = 99
    [reply] = run_session(engine, json.dumps(wire))
    assert "version" in reply["error"]


def test_out_of_range_query_is_an_error_reply_not_a_crash():
    engine = build_engine()
    wire = QueryBatch.of(Query.tail(99, 0)).to_wire()
    [reply] = run_session(engine, json.dumps(wire))
    assert "anchor" in reply["error"]


def test_ping_stats_and_unknown_ops():
    engine = build_engine()
    ping, stats, unknown = run_session(
        engine,
        json.dumps({"op": "ping"}),
        json.dumps({"op": "stats"}),
        json.dumps({"op": "selfdestruct"}),
    )
    assert ping == {"ok": True}
    payload = stats["stats"]
    assert payload["queries"] >= 0 and "cache" in payload
    assert "unknown op" in unknown["error"]
    # Without telemetry the stats reply keeps its original shape.
    assert "telemetry" not in stats


def test_stats_op_carries_a_telemetry_snapshot_when_enabled():
    engine = build_engine()
    batch = json.dumps(QueryBatch.of(Query.tail(0, 1, k=3)).to_wire())
    with scoped(Telemetry(enabled=True)):
        reply, stats = run_session(engine, batch, json.dumps({"op": "stats"}))
    assert "results" in reply
    snapshot = stats["telemetry"]
    assert snapshot["counters"]["serve.requests"] >= 1
    assert any(name.startswith("cache.serve.") for name in snapshot["counters"])
    json.dumps(stats)  # the whole reply must stay wire-serializable


# ------------------------------------------------------------------ live sockets
def test_query_server_against_a_live_asyncio_server():
    engine = build_engine()

    async def exercise():
        server = await start_server(engine, host="127.0.0.1", port=0)
        host, port = server.sockets[0].getsockname()[:2]
        batch = QueryBatch.of(Query.tail(1, 2, k=4), Query.tail(1, 2, k=4))
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(
            None, lambda: query_server(host, port, batch)
        )
        server.close()
        await server.wait_closed()
        return response

    response = asyncio.run(exercise())
    assert len(response.results) == 2
    assert response.results[0].entities == response.results[1].entities
    assert len(response.results[0].entities) == 4


def test_serve_forever_in_a_thread_end_to_end():
    engine = build_engine()
    address = {}
    ready = threading.Event()

    def capture(bound):
        address["host"], address["port"] = bound
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(engine, "127.0.0.1", 0),
        kwargs={"ready": capture},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10), "server never reported ready"

    batch = QueryBatch.of(Query.tail(0, 1, k=3, filtered=False))
    response = query_server(address["host"], address["port"], batch)
    assert len(response.results) == 1
    assert len(response.results[0].entities) == 3
    # Server-side error surfaces as a WireError on the client.
    with pytest.raises(WireError, match="anchor"):
        query_server(address["host"], address["port"], QueryBatch.of(Query.tail(99, 0)))


# ------------------------------------------------------------------ faults
class GatedScorer:
    """Holds each batched tail scoring until released: a flush in progress."""

    def __init__(self, model):
        self.model = model
        self.num_entities = model.num_entities
        self.num_relations = model.num_relations
        self.scoring = threading.Event()
        self.release = threading.Event()

    def score_tails_batch(self, heads, relations):
        self.scoring.set()
        if not self.release.wait(timeout=10):
            raise TimeoutError("the test never released the flush")
        return self.model.score_tails_batch(heads, relations)


def test_clients_that_reset_mid_flush_leave_the_server_serving():
    """A client that sends a query and resets the connection (``SO_LINGER``
    0) while its flush is scoring: the server counts the abandoned query,
    answers the next client, and its loop records no exception."""
    model = make_model("TransE", 8, 4, ModelConfig(dim=8, seed=3))
    model.train_mode(False)
    scorer = GatedScorer(model)
    engine = QueryEngine(scorer)
    loop = asyncio.new_event_loop()
    errors = []
    loop.set_exception_handler(lambda _, context: errors.append(context))
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(
        start_server(engine, host="127.0.0.1", port=0), loop
    ).result(timeout=10)
    host, port = server.sockets[0].getsockname()[:2]
    abandoned = 3
    try:
        for anchor in range(abandoned):
            scorer.scoring.clear()
            scorer.release.clear()
            request = QueryBatch.of(Query.tail(anchor, 1, k=3)).to_wire()
            with socket.create_connection((host, port), timeout=10) as client:
                client.sendall(json.dumps(request).encode("utf-8") + b"\n")
                assert scorer.scoring.wait(timeout=10), "the query never reached a flush"
                client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            scorer.release.set()
        fresh = query_server(host, port, QueryBatch.of(Query.tail(abandoned, 1, k=3)), timeout=10)
        assert len(fresh.results[0].entities) == 3
        stats = engine.stats
        assert stats.queries == abandoned + 1
        assert stats.flushes == abandoned + 1
    finally:
        scorer.release.set()

        async def stop():
            server.close()
            await server.wait_closed()

        asyncio.run_coroutine_threadsafe(stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
    assert not thread.is_alive()
    loop.close()
    assert errors == []
