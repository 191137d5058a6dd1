"""Contract of the mechanism registry over every surface.

Each of the four mechanisms is reachable from six surfaces: the session
method, the SQL UDF form, the parallel executor, the server's wire
``mechanism`` op (through the scheduler), ``CREATE MATERIALIZED VIEW``
and rqlint's ``certify``.  They all resolve names, check arguments and
dispatch through :data:`repro.core.mechanisms.MECHANISMS`, so on every
surface:

* CamelCase and snake_case spellings are both accepted, where the
  surface takes a name, and give the serial session's result;
* an unknown name raises the error type that surface has always raised;
* a bad argument raises ``AggregateError`` (rqlint instead certifies it
  serial-only) before any side effect: an existing table named like the
  result table keeps its rows.
"""

from __future__ import annotations

import itertools
import re

import pytest

from repro.analysis.query import SERIAL_ONLY
from repro.core.mechanisms import MECHANISMS, resolve
from repro.core.parallel import ParallelExecutor
from repro.errors import (
    AggregateError,
    MechanismError,
    PlanError,
    ServerError,
    ViewError,
)
from repro.server import RQLServer, WireClient, WireServer
from repro.workloads.corpus import CorpusEntry, run_entry

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

#: canonical name -> (Qq, good argument, bad argument)
CALLS = {
    "CollateData": ("SELECT g, v FROM t", None, None),
    "AggregateDataInVariable": ("SELECT SUM(v) FROM t", "max", "bogus"),
    "AggregateDataInTable": ("SELECT g, v FROM t", "(v,sum)", "v:bogus"),
    "CollateDataIntoIntervals": ("SELECT g, v FROM t", None, None),
}

_names = itertools.count(1)


def snake(name: str) -> str:
    return re.sub(r"(?<!^)([A-Z])", r"_\1", name).lower()


def fresh(prefix: str) -> str:
    return f"{prefix}{next(_names)}"


class Env:
    """One server, one client handle (its session) and one wire client
    over a small three-snapshot history."""

    def __init__(self) -> None:
        self.server = RQLServer(gate_timeout=30.0)
        self.handle = self.server.connect("contract")
        self.session = self.handle.session
        self.wire = WireServer(self.server).start()
        self.client = WireClient(*self.wire.address, timeout=30.0)
        self.session.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
        for n in range(3):
            self.session.execute(f"INSERT INTO t VALUES ({n % 2}, {n})")
            self.session.declare_snapshot()

    def rows(self, table: str):
        return sorted(self.session.execute(f'SELECT * FROM "{table}"').rows,
                      key=repr)

    def close(self) -> None:
        self.client.close()
        self.wire.close()
        self.handle.close()
        self.server.close()


@pytest.fixture(scope="module")
def env():
    environment = Env()
    yield environment
    environment.close()


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


# -- the six surfaces: run(env, spelling, qq, arg, table) -------------------

def via_session(env, name, qq, arg, table):
    entry = CorpusEntry(name="contract", workload="contract", mechanism=name,
                        qs=QS, qq=qq, expected_class="", arg=arg)
    run_entry(env.session, entry, table, workers=1)


def via_udf(env, name, qq, arg, table):
    args = [_quote(qq), _quote(table)] + ([_quote(arg)] if arg else [])
    env.session.execute(
        f"SELECT {name}(snap_id, {', '.join(args)}) FROM SnapIds")


def via_executor(env, name, qq, arg, table):
    mechanism = resolve(name)
    executor = ParallelExecutor(env.session.db, workers=2)
    extra = (arg,) if mechanism.takes_arg else ()
    getattr(executor, mechanism.method)(QS, qq, table, *extra)


def via_wire(env, name, qq, arg, table):
    request = {"op": "mechanism", "mechanism": name, "qs": QS, "qq": qq,
               "table": table, "workers": 2}
    if arg is not None:
        request["arg"] = arg
    reply = env.client.request(request)
    if not reply["ok"]:
        raise {"ServerError": ServerError,
               "AggregateError": AggregateError}[reply["error"]](
                   reply["message"])


def via_view(env, name, qq, arg, table):
    args = _quote(qq) + (f", {_quote(arg)}" if arg else "")
    env.session.execute(
        f"CREATE MATERIALIZED VIEW {table} AS {name}({args})")


def via_certify(env, name, qq, arg, table):
    return env.session.certify(name, QS, qq, arg)


#: surface -> (runner, takes a name, error an unknown name raises)
SURFACES = {
    "session": (via_session, True, MechanismError),
    "udf": (via_udf, False, PlanError),
    "executor": (via_executor, True, MechanismError),
    "wire": (via_wire, True, ServerError),
    "view": (via_view, True, ViewError),
    "certify": (via_certify, True, AggregateError),
}

mechanisms = pytest.mark.parametrize(
    "mechanism", MECHANISMS, ids=lambda m: m.name)
surfaces = pytest.mark.parametrize("surface", sorted(SURFACES))


@mechanisms
@surfaces
def test_both_spellings_match_the_serial_session(env, mechanism, surface):
    run, takes_name, _ = SURFACES[surface]
    qq, arg, _ = CALLS[mechanism.name]
    reference = fresh("ref")
    getattr(env.session, mechanism.method)(
        QS, qq, reference, *((arg,) if mechanism.takes_arg else ()))
    spellings = (mechanism.name, snake(mechanism.name)) if takes_name \
        else (mechanism.name,)
    assert snake(mechanism.name) == mechanism.method
    for spelling in spellings:
        table = fresh("out")
        outcome = run(env, spelling, qq, arg, table)
        if surface == "certify":
            assert outcome.merge_class == mechanism.merge_class
            assert outcome.mechanism == spelling
        else:
            assert env.rows(table) == env.rows(reference), spelling


@surfaces
def test_unknown_name_keeps_each_surface_error_type(env, surface):
    run, _, error = SURFACES[surface]
    with pytest.raises(error):
        run(env, "CollateDatum", "SELECT g FROM t", None, fresh("unknown"))


@mechanisms
@surfaces
def test_bad_argument_is_refused_before_any_side_effect(
        env, mechanism, surface):
    if not mechanism.takes_arg:
        pytest.skip(f"{mechanism.name} takes no argument")
    run, _, _ = SURFACES[surface]
    qq, _, bad = CALLS[mechanism.name]
    table = fresh("Keep")
    env.session.execute(f"CREATE TABLE {table} (a INTEGER)")
    env.session.execute(f"INSERT INTO {table} VALUES (1), (2)")
    if surface == "certify":
        assert run(env, mechanism.name, qq, bad, table).merge_class \
            == SERIAL_ONLY
    else:
        with pytest.raises(AggregateError):
            run(env, mechanism.name, qq, bad, table)
    assert env.rows(table) == [(1,), (2,)]
