"""Wire `mechanism` requests: every spelling, malformed arguments, and a
handler that dies.

A malformed ``arg`` must come back as a typed ``AggregateError`` on a
connection that stays usable; a dispatch that raises something
unexpected must end the connection so the client sees EOF at once,
instead of waiting out its own socket timeout.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ServerError
from repro.server import RQLServer, WireClient, WireServer

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

CLEAN = {"sessions": 0, "read_contexts": 0, "gate_held": False,
         "active_queries": 0}


@pytest.fixture
def server():
    srv = RQLServer(gate_timeout=30.0)
    yield srv
    srv.close()


@pytest.fixture
def wire(server):
    front = WireServer(server).start()
    yield front
    front.close()


def _populate(client: WireClient) -> None:
    assert client.execute("CREATE TABLE t (cn INTEGER, av INTEGER)")["ok"]
    for n in range(3):
        assert client.execute(f"INSERT INTO t VALUES ({n % 2}, {n})")["ok"]
        assert client.request({"op": "snapshot"})["ok"]


def _mechanism(client: WireClient, mechanism: str, qq: str,
               arg=None, workers: int = 1) -> dict:
    request = {"op": "mechanism", "mechanism": mechanism, "qs": QS,
               "qq": qq, "table": "R", "workers": workers}
    if arg is not None:
        request["arg"] = arg
    return client.request(request)


def _wait_clean(server: RQLServer) -> dict:
    deadline = time.monotonic() + 10.0
    while server.leak_report() != CLEAN and time.monotonic() < deadline:
        time.sleep(0.01)
    return server.leak_report()


@pytest.mark.parametrize("mechanism, arg", [
    ("aggregate_data_in_table", [["cn"]]),
    ("aggregate_data_in_variable", 5),
])
def test_malformed_arg_is_a_typed_error(server, wire, mechanism, arg):
    host, port = wire.address
    with WireClient(host, port, timeout=10.0) as client:
        _populate(client)
        reply = _mechanism(client, mechanism, "SELECT cn, av FROM t", arg,
                           workers=2)
        assert reply["ok"] is False
        assert reply["error"] == "AggregateError"
        # The same connection keeps serving.
        good = _mechanism(client, "aggregate_data_in_table",
                          "SELECT cn, av FROM t", [["av", "sum"]],
                          workers=2)
        assert good["ok"] and good["snapshots"] == [1, 2, 3]
        rows = client.execute("SELECT cn, av FROM R ORDER BY cn")["rows"]
        assert rows == [[0, 2], [1, 2]]
    assert _wait_clean(server) == CLEAN


@pytest.mark.parametrize("spelling", [
    "collate_data", "CollateData", "COLLATEDATA",
])
def test_mechanism_accepts_either_spelling(server, wire, spelling):
    host, port = wire.address
    with WireClient(host, port, timeout=10.0) as client:
        _populate(client)
        reply = _mechanism(client, spelling, "SELECT av FROM t")
        assert reply["ok"], reply
        assert reply["rows"] == 6
        bad = _mechanism(client, "collate_datum", "SELECT av FROM t")
        assert bad["ok"] is False and bad["error"] == "ServerError"
    assert _wait_clean(server) == CLEAN


def test_pair_text_arg_in_both_forms(server, wire):
    host, port = wire.address
    with WireClient(host, port, timeout=10.0) as client:
        _populate(client)
        for arg in ("(av,sum)", "av:sum", "(sum,av)"):
            reply = _mechanism(client, "AggregateDataInTable",
                               "SELECT cn, av FROM t", arg)
            assert reply["ok"], (arg, reply)
            rows = client.execute("SELECT cn, av FROM R ORDER BY cn")
            assert rows["rows"] == [[0, 2], [1, 2]]


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_unexpected_dispatch_error_closes_the_connection(
        server, wire, monkeypatch):
    def explode(self, handle, line):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(WireServer, "_dispatch", explode)
    host, port = wire.address
    client = WireClient(host, port, timeout=20.0)
    started = time.monotonic()
    try:
        with pytest.raises(ServerError, match="closed the connection"):
            client.request({"op": "ping"})
    finally:
        client.drop()
    assert time.monotonic() - started < 5.0
    assert _wait_clean(server) == CLEAN
