"""A thin socket front-end: newline-delimited JSON over localhost TCP.

One TCP connection = one server session.  Requests and responses are
single JSON objects per line::

    -> {"op": "execute", "sql": "SELECT 1"}
    <- {"ok": true, "columns": ["1"], "rows": [[1]]}

    -> {"op": "snapshot", "name": "friday"}
    <- {"ok": true, "snapshot_id": 3}

    -> {"op": "mechanism", "mechanism": "collate_data",
        "qs": "SELECT snap_id FROM SnapIds", "qq": "SELECT ...",
        "table": "Result"}
    <- {"ok": true, "table": "Result", "rows": 42, "snapshots": [...]}

The ``mechanism`` field takes either spelling (``collate_data`` or
``CollateData``); ``arg`` carries AggFunc (``"avg"``) or
ListOfColFuncPairs as text (``"(cn,sum):(av,max)"``, ``"cn:sum"``) or
as a JSON list of ``[column, func]`` pairs.

Errors come back as ``{"ok": false, "error": "<class>",
"message": "..."}`` and keep the connection usable — a malformed
``arg`` answers ``"AggregateError"``.  A vanished peer
(EOF, reset) is an **abrupt disconnect**: the serving thread kills the
session through the scheduler's cancel path, so a client that dies
mid-query leaks nothing.

The wire layer is deliberately minimal — the differential harness and
the fault tests drive the richer in-process API; this exists so
``python -m repro.cli serve`` has something to speak.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError, ServerError

from repro.server.server import ClientHandle, RQLServer


class WireServer:
    """Serves an :class:`RQLServer` over a localhost TCP socket."""

    def __init__(self, server: RQLServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self._server = server
        self._sock = socket.create_server((host, port))
        self._latch = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._sock.getsockname()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WireServer":
        """Accept connections on a background thread."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="rql-wire-accept", daemon=True)
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, join connection threads (idempotent)."""
        with self._latch:
            if self._closed:
                return
            self._closed = True
        # Closing the listening socket does not reliably unblock a
        # thread sitting in accept(); poke it with a throwaway
        # connection first.
        try:
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join()
        self._sock.close()
        with self._latch:
            threads = list(self._threads)
        for thread in threads:
            thread.join()

    @property
    def closed(self) -> bool:
        with self._latch:
            return self._closed

    def __enter__(self) -> "WireServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- connection handling ------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed: shutdown
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="rql-wire-conn", daemon=True)
            with self._latch:
                if self._closed:
                    conn.close()
                    return
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        handle: Optional[ClientHandle] = None
        clean = False
        # makefile() holds its own reference to the socket: it must be
        # closed too, or conn.close() never releases the connection and
        # the client waits out its own timeout instead of seeing EOF.
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        try:
            handle = self._server.connect()
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                response, disconnect = self._dispatch(handle, line)
                if disconnect:
                    # Close the session *before* acknowledging, so a
                    # client that saw the ack never observes its own
                    # session still registered.
                    clean = True
                    handle.close()
                conn.sendall(
                    (json.dumps(response, default=repr) + "\n").encode(
                        "utf-8"))
                if disconnect:
                    return
        except (OSError, ValueError):
            pass  # peer vanished mid-write: treated as abrupt below
        finally:
            if handle is not None and not handle.closed:
                # EOF without a close op = the client vanished; cancel
                # whatever it left running and reap the session.
                if clean:
                    handle.close()
                else:
                    handle.kill()
            reader.close()
            conn.close()

    # -- request dispatch ---------------------------------------------------

    def _dispatch(self, handle: ClientHandle,
                  line: str) -> Tuple[Dict[str, Any], bool]:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": "BadRequest",
                    "message": f"not JSON: {exc}"}, False
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "session": handle.name}, False
            if op == "execute":
                result = handle.execute(str(request["sql"]))
                return {"ok": True, "columns": list(result.columns),
                        "rows": [list(r) for r in result.rows]}, False
            if op == "script":
                result = handle.executescript(str(request["sql"]))
                payload: Dict[str, Any] = {"ok": True}
                if result is not None:
                    payload["columns"] = list(result.columns)
                    payload["rows"] = [list(r) for r in result.rows]
                return payload, False
            if op == "snapshot":
                sid = handle.declare_snapshot(name=request.get("name"))
                return {"ok": True, "snapshot_id": sid}, False
            if op == "mechanism":
                result = handle._mechanism(
                    str(request["mechanism"]), str(request["qs"]),
                    str(request["qq"]), str(request["table"]),
                    request.get("arg"),
                    bool(request.get("persistent", False)),
                    request.get("workers"), True)
                return {"ok": True, "table": result.table,
                        "rows": result.result_rows,
                        "snapshots": list(result.snapshots)}, False
            if op == "close":
                return {"ok": True, "session": handle.name}, True
            return {"ok": False, "error": "BadRequest",
                    "message": f"unknown op {op!r}"}, False
        except ReproError as exc:
            return {"ok": False, "error": type(exc).__name__,
                    "message": str(exc)}, False
        except KeyError as exc:
            return {"ok": False, "error": "BadRequest",
                    "message": f"missing field {exc}"}, False


class WireClient:
    """A minimal blocking client for :class:`WireServer` (tests + CLI)."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8",
                                           newline="\n")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(
            (json.dumps(payload) + "\n").encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ServerError("server closed the connection")
        return json.loads(line)

    def execute(self, sql: str) -> Dict[str, Any]:
        return self.request({"op": "execute", "sql": sql})

    def close(self) -> None:
        try:
            self.request({"op": "close"})
        except (OSError, ServerError):
            pass
        self._teardown()

    def drop(self) -> None:
        """Abruptly drop the TCP connection (no close op): simulates a
        client that vanished."""
        self._teardown()

    def _teardown(self) -> None:
        # makefile() holds its own reference to the fd: shut the
        # connection down explicitly so the server sees EOF even while
        # the reader object is alive, then close both.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
