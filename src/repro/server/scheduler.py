"""Query scheduler: concurrent retrospective queries over one store.

Each submitted mechanism call becomes a :class:`QueryTicket` running on
its own dispatcher thread.  Retrospective reads are snapshot-pinned, so
any number of tickets across sessions run concurrently without blocking
writers; result-table writes (and only those) take the shared write
gate.

Admission is **certificate-gated** (the rqlint merge-class analysis):

* a mechanism whose certificate matches its expected merge class
  (``concat``, ``monoid``, ``stored-row``, ``interval-stitch``) may run
  *partitioned* — its snapshot partitions are dispatched through the
  server-wide :class:`~repro.core.parallel.WorkerPool`;
* a ``serial-only`` verdict (stateful builtin in Qq, non-monoid
  aggregate, ...) runs the classic serial loop instead — still
  concurrently with other sessions' queries, just not partitioned
  within itself.

Every ticket carries a cancel event wired into both paths: the serial
loop polls it between snapshot iterations, the parallel executor's
partition workers poll it between iterations and the run surfaces
:class:`~repro.errors.QueryCancelled` after every worker retired.  The
server sets it when a client disconnects mid-query; the scheduler then
drops the partial result table so a cancelled query leaves no debris.

A session runs **one query at a time** (a per-session dispatch lock):
one client connection is one logical stream of statements, and the
session facade's per-statement transaction state is not a concurrent
structure.  Distinct sessions are where the concurrency is.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core import RQLSession
from repro.core.mechanisms import RQLResult, resolve
from repro.core.parallel import run_mechanism
from repro.errors import QueryCancelled, ReproError, ServerError

from repro.server.store import SharedStore


class QueryTicket:
    """One in-flight (or finished) retrospective query."""

    def __init__(self, ticket_id: int, session_name: str,
                 mechanism: str, table: str) -> None:
        self.id = ticket_id
        self.session_name = session_name
        self.mechanism = mechanism
        self.table = table
        #: set to request cancellation (client disconnect, shutdown)
        self.cancel = threading.Event()
        #: set exactly once, after the dispatcher thread fully retired
        self.done = threading.Event()
        #: RQLResult for mechanism tickets; a views.RefreshReport for
        #: refresh tickets
        self.result = None
        self.error: Optional[BaseException] = None
        #: True when the run was partitioned through the worker pool
        self.partitioned = False

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done.wait(timeout)

    def outcome(self) -> RQLResult:
        """Block until done; re-raise the query's error, if any."""
        self.done.wait()
        error = self.error
        if error is not None:
            raise error
        assert self.result is not None
        return self.result


class QueryScheduler:
    """Admits, runs, cancels and accounts retrospective queries."""

    def __init__(self, store: SharedStore) -> None:
        self._store = store
        self._latch = threading.RLock()
        self._active: Dict[int, QueryTicket] = {}
        self._session_locks: Dict[str, threading.Lock] = {}
        self._next_id = 1
        self._closed = False

    # -- submission ---------------------------------------------------------

    def submit(self, session: RQLSession, mechanism: str, qs: str, qq: str,
               table: str, arg: object = None, persistent: bool = False,
               workers: Optional[int] = None) -> QueryTicket:
        """Run ``mechanism`` (any spelling) asynchronously; returns its
        ticket."""
        mechanism = resolve(mechanism, ServerError).method
        if session.name is None:
            raise ServerError(
                "scheduler sessions need a name (open them through the "
                "registry)"
            )
        with self._latch:
            if self._closed:
                raise ServerError("scheduler is shut down")
            ticket = QueryTicket(self._next_id, session.name, mechanism,
                                 table)
            self._next_id += 1
            self._active[ticket.id] = ticket
            lock = self._session_locks.setdefault(session.name,
                                                  threading.Lock())
        thread = threading.Thread(
            target=self._run,
            args=(lock, session, ticket, qs, qq, table, arg, persistent,
                  workers),
            name=f"rql-query-{ticket.id}",
        )
        thread.start()
        return ticket

    def run(self, session: RQLSession, mechanism: str, qs: str, qq: str,
            table: str, arg: object = None, persistent: bool = False,
            workers: Optional[int] = None) -> RQLResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(session, mechanism, qs, qq, table, arg=arg,
                           persistent=persistent,
                           workers=workers).outcome()

    def submit_refresh(self, session: RQLSession, name: str,
                       full: bool = False) -> QueryTicket:
        """Run ``REFRESH MATERIALIZED VIEW name`` asynchronously.

        Refresh admission is a **write**: the whole refresh holds the
        store's write gate (via the view manager) while concurrently
        pinned readers keep seeing the stale-but-consistent pre-refresh
        contents through MVCC.  Unlike mechanism tickets, a cancelled
        refresh must NOT drop its table — the view's single commit
        already guarantees the stored result is fully old or fully new,
        and dropping it would destroy the committed base.
        """
        if session.name is None:
            raise ServerError(
                "scheduler sessions need a name (open them through the "
                "registry)"
            )
        with self._latch:
            if self._closed:
                raise ServerError("scheduler is shut down")
            ticket = QueryTicket(self._next_id, session.name,
                                 "refresh_view", name)
            self._next_id += 1
            self._active[ticket.id] = ticket
            lock = self._session_locks.setdefault(session.name,
                                                  threading.Lock())
        thread = threading.Thread(
            target=self._run_refresh,
            args=(lock, session, ticket, name, full),
            name=f"rql-refresh-{ticket.id}",
        )
        thread.start()
        return ticket

    def refresh(self, session: RQLSession, name: str,
                full: bool = False):
        """Synchronous convenience wrapper around :meth:`submit_refresh`;
        returns the :class:`~repro.retro.views.RefreshReport`."""
        return self.submit_refresh(session, name, full=full).outcome()

    # -- execution ----------------------------------------------------------

    def _run(self, lock: threading.Lock, session: RQLSession,
             ticket: QueryTicket, qs: str, qq: str, table: str,
             arg: object, persistent: bool,
             workers: Optional[int]) -> None:
        try:
            with lock:
                ticket.result = self._execute(session, ticket, qs, qq,
                                              table, arg, persistent,
                                              workers)
        except QueryCancelled as exc:
            ticket.error = exc
            self._drop_partial(session, table)
        except BaseException as exc:  # replint: taxonomy-exempt -- stored on the ticket; outcome() re-raises it
            ticket.error = exc
        finally:
            with self._latch:
                self._active.pop(ticket.id, None)
            ticket.done.set()

    def _run_refresh(self, lock: threading.Lock, session: RQLSession,
                     ticket: QueryTicket, name: str, full: bool) -> None:
        try:
            with lock:
                if ticket.cancel.is_set():
                    raise QueryCancelled(
                        f"refresh of {name!r} cancelled before admission"
                    )
                ticket.result = session.views.refresh(
                    name, full=full, cancel=ticket.cancel)
        except BaseException as exc:  # replint: taxonomy-exempt -- stored on the ticket; outcome() re-raises it
            # Deliberately no _drop_partial: the view table is only ever
            # replaced by the refresh's single atomic commit, so on any
            # failure (including cancellation) the committed base result
            # is still exact for its recorded built_from snapshot.
            ticket.error = exc
        finally:
            with self._latch:
                self._active.pop(ticket.id, None)
            ticket.done.set()

    def _execute(self, session: RQLSession, ticket: QueryTicket, qs: str,
                 qq: str, table: str, arg: object, persistent: bool,
                 workers: Optional[int]) -> RQLResult:
        mechanism = resolve(ticket.mechanism)
        count = session._effective_workers(workers)
        certificate = session.certify(mechanism.name, qs, qq, arg)
        if ticket.cancel.is_set():
            raise QueryCancelled(
                f"query over {table!r} cancelled before admission"
            )
        # A serial-only certificate (or workers == 1) runs the classic
        # loop instead of being refused.
        ticket.partitioned = count > 1 \
            and certificate.merge_class == mechanism.merge_class
        return run_mechanism(
            session.db, mechanism, qs, qq, table, arg, persistent,
            count if ticket.partitioned else 1, pool=self._store.pool,
            cancel=ticket.cancel, certificate=certificate)

    def _drop_partial(self, session: RQLSession, table: str) -> None:
        """A cancelled run must not leave a half-built result table."""
        try:
            session._drop_result_table(table)
        except ReproError:
            # Best effort: the session may be mid-teardown; the table
            # lives in the aux engine and dies with the store anyway.
            pass

    # -- cancellation / accounting ------------------------------------------

    def tickets_for(self, session_name: str) -> List[QueryTicket]:
        with self._latch:
            return [t for t in self._active.values()
                    if t.session_name == session_name]

    def active_count(self) -> int:
        with self._latch:
            return len(self._active)

    def cancel_session(self, session_name: str,
                       wait: bool = True) -> int:
        """Cancel every in-flight query of one session.

        Returns how many tickets were signalled; with ``wait`` (the
        default) blocks until each has fully retired — the contract the
        registry relies on before tearing the session down.
        """
        tickets = self.tickets_for(session_name)
        for ticket in tickets:
            ticket.cancel.set()
        if wait:
            for ticket in tickets:
                ticket.done.wait()
        return len(tickets)

    def drain_session(self, session_name: str) -> int:
        """Wait for a session's queries without cancelling them."""
        tickets = self.tickets_for(session_name)
        for ticket in tickets:
            ticket.done.wait()
        return len(tickets)

    def shutdown(self) -> int:
        """Cancel everything, wait for it, refuse new submissions."""
        with self._latch:
            self._closed = True
            tickets = list(self._active.values())
        for ticket in tickets:
            ticket.cancel.set()
        for ticket in tickets:
            ticket.done.wait()
        return len(tickets)
