"""rqlint driver: lint RQL mechanism invocations in ``.sql`` corpora.

Entry points::

    python -m repro.cli lint --queries [paths...]   # via the main CLI
    lint_sql_source(...) / run_query_lint(...)      # programmatic / tests

A corpus file is plain SQL annotated with ``-- rqlint:`` comments:

* DDL statements (``CREATE TABLE`` / ``CREATE INDEX``) outside any case
  build the file's :class:`~repro.sql.semantic.StaticSchema` (SnapIds is
  always present — every Qs reads it);
* a **case directive** opens one mechanism invocation; the SQL that
  follows (until the next directive) is its Qq::

      -- rqlint: mechanism=CollateData qs="SELECT snap_id FROM SnapIds"
      SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn;

  ``arg="sum"`` supplies an AggregateDataInVariable aggregate,
  ``arg="online:sum,flags:count"`` (or the paper's
  ``"(online,sum):(flags,count)"``) an AggregateDataInTable pair list;
* **pragmas** suppress rules for the enclosing case (or, before any
  case, for the whole file) and must justify themselves after ``--``,
  mirroring replint's RPL000 convention::

      -- rqlint: ignore[RQL103] -- audits deliberately walk all history
      -- rqlint: mergeclass-exempt -- legacy report, runs serially

Every run also certifies the builtin golden corpus
(:mod:`repro.workloads.corpus`), so the paper's TPC-H and LoggedIn
query shapes are re-checked on each lint.  Exit status mirrors replint:
0 when no error-severity findings survive pragma and baseline
filtering, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import PRAGMA_ALIASES
from repro.analysis.findings import (
    ERROR,
    AnalysisReport,
    Finding,
    load_baseline,
    save_baseline,
)
from repro.analysis.query.mergeclass import certify_mechanism
from repro.analysis.query.planlint import plan_corpus_findings
from repro.analysis.query.rules import query_rule_descriptions
from repro.analysis.sarif import render_sarif
from repro.errors import AnalysisError

DEFAULT_BASELINE = "rqlint.baseline"

_SQL_PRAGMA_RE = re.compile(r"^\s*--\s*rqlint:\s*(?P<body>.+?)\s*$")
_IGNORE_RE = re.compile(r"ignore\[(?P<rules>[A-Za-z0-9_,\s]+)\]")
_KEYVAL_RE = re.compile(r'(?P<key>\w+)=(?:"(?P<quoted>[^"]*)"'
                        r'|(?P<bare>\S+))')

#: SnapIds is implicitly in scope for every corpus file (the Qs reads it).
_SNAPIDS_DDL = ("CREATE TABLE SnapIds (snap_id INTEGER PRIMARY KEY, "
                "snap_ts TEXT, snap_name TEXT)")


class _Case:
    """One mechanism invocation parsed out of a corpus file."""

    def __init__(self, line: int, mechanism: str, qs: str,
                 arg: object, name: str) -> None:
        self.line = line          #: directive line (1-based)
        self.mechanism = mechanism
        self.qs = qs
        self.arg = arg
        self.name = name
        self.qq_lines: List[str] = []
        self.qq_start = line + 1  #: line the Qq text begins on
        self.suppressed: Set[str] = set()

    @property
    def qq(self) -> str:
        return "\n".join(self.qq_lines).strip().rstrip(";").strip()


def _parse_pragma_rules(directive: str) -> Set[str]:
    rules: Set[str] = set()
    ignore = _IGNORE_RE.search(directive)
    if ignore is not None:
        rules.update(r.strip().upper()
                     for r in ignore.group("rules").split(",") if r.strip())
    for alias, rule in PRAGMA_ALIASES.items():
        if alias in directive:
            if isinstance(rule, tuple):
                rules.update(rule)
            else:
                rules.add(rule)
    return rules


class _SqlCorpus:
    """Parsed form of one annotated ``.sql`` file."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.cases: List[_Case] = []
        self.ddl_lines: List[str] = []
        self.file_suppressed: Set[str] = set()
        self.findings: List[Finding] = []

    def _finding(self, line: int, message: str, hint: str = "") -> None:
        self.findings.append(Finding(
            file=self.relpath, line=line, rule="RQL100", severity=ERROR,
            message=message, hint=hint,
        ))

    def _open_case(self, lineno: int, body: str) -> None:
        fields: Dict[str, str] = {}
        for match in _KEYVAL_RE.finditer(body):
            value = match.group("quoted")
            if value is None:
                value = match.group("bare")
            fields[match.group("key").lower()] = value
        mechanism = fields.get("mechanism", "")
        qs = fields.get("qs", "")
        if not qs:
            self._finding(
                lineno, "rqlint case directive is missing qs=\"...\"",
                hint='-- rqlint: mechanism=CollateData qs="SELECT ..."')
        self.cases.append(_Case(
            lineno, mechanism, qs, fields.get("arg"),
            fields.get("name", f"case@{lineno}"),
        ))

    def _apply_pragma(self, lineno: int, body: str) -> None:
        directive, _, justification = body.partition("--")
        rules = _parse_pragma_rules(directive)
        if not rules:
            self._finding(
                lineno, "unrecognized rqlint pragma",
                hint="use '-- rqlint: ignore[RQLnnn] -- reason' or a "
                     "named alias (query-exempt, mergeclass-exempt)")
            return
        if not justification.strip():
            self._finding(
                lineno, "rqlint pragma without a justification",
                hint="append ' -- <why this is safe>' to the pragma")
            return
        if self.cases:
            self.cases[-1].suppressed.update(rules)
        else:
            self.file_suppressed.update(rules)

    def parse(self, source: str) -> "_SqlCorpus":
        for lineno, raw in enumerate(source.splitlines(), start=1):
            match = _SQL_PRAGMA_RE.match(raw)
            if match is not None:
                body = match.group("body")
                if "mechanism=" in body.partition("--")[0]:
                    self._open_case(lineno, body)
                else:
                    self._apply_pragma(lineno, body)
                continue
            if self.cases:
                self.cases[-1].qq_lines.append(raw)
            else:
                self.ddl_lines.append(raw)
        return self

    def schema(self):
        """StaticSchema from the file's DDL (plus the implicit SnapIds)."""
        from repro.sql.semantic import StaticSchema
        from repro.errors import ReproError

        schema = StaticSchema.from_ddl(_SNAPIDS_DDL)
        for name in ("current_snapshot", "snapshot_id", "rql_workers"):
            schema.add_function(name)
        ddl = "\n".join(self.ddl_lines).strip()
        if ddl:
            try:
                schema.add_ddl(ddl)
            except ReproError as exc:
                self._finding(1, f"corpus DDL does not parse: {exc}")
        return schema

    def certify(self) -> List[Finding]:
        """All (unsuppressed) findings for this file."""
        schema = self.schema()
        results = list(self.findings)
        for case in self.cases:
            if not case.qq:
                results.append(Finding(
                    file=self.relpath, line=case.line, rule="RQL100",
                    severity=ERROR, symbol=case.name,
                    message=f"case {case.name!r} has no Qq text",
                ))
                continue
            certificate = certify_mechanism(
                case.mechanism, case.qs, case.qq, arg=case.arg,
                schema=schema, file=self.relpath, line=case.qq_start,
                symbol=case.name,
            )
            muted = case.suppressed | self.file_suppressed
            results.extend(f for f in certificate.findings
                           if f.rule not in muted)
        return results


def lint_sql_source(source: str, relpath: str) -> List[Finding]:
    """Run rqlint over one corpus file's text (test entry point)."""
    return _SqlCorpus(relpath).parse(source).certify()


def iter_sql_files(root: Path) -> Iterable[Tuple[Path, str]]:
    if root.is_file():
        yield root, root.name
        return
    for path in sorted(root.rglob("*.sql")):
        yield path, path.relative_to(root).as_posix()


def _corpus_findings() -> Tuple[List[Finding], int]:
    """Re-certify the builtin golden corpus; only *drift* is reported.

    The corpus deliberately contains serial-only and warning entries —
    their expected findings are the golden data, not lint debt — so a
    run stays clean unless a verdict diverges from the recorded one.
    """
    from repro.workloads.corpus import CORPUS, certify_entry, corpus_schema

    schema = corpus_schema()
    findings: List[Finding] = []
    for entry in CORPUS:
        certificate = certify_entry(entry, schema=schema)
        got = tuple(sorted({f.rule for f in certificate.findings}))
        want = tuple(sorted(entry.expected_rules))
        if certificate.merge_class != entry.expected_class or got != want:
            findings.append(Finding(
                file=f"<corpus:{entry.name}>", line=1, rule="RQL100",
                severity=ERROR, symbol=entry.name,
                message=f"golden verdict drift: certified "
                        f"{certificate.merge_class!r} {got}, corpus "
                        f"expects {entry.expected_class!r} {want}",
                hint="update repro/workloads/corpus.py only with a "
                     "matching mergeclass change",
            ))
    return findings, len(CORPUS)


def analyze_query_paths(paths: Sequence[Path],
                        baseline: Optional[Set[str]] = None,
                        include_corpus: bool = True) -> AnalysisReport:
    report = AnalysisReport()
    baseline = baseline or set()
    findings: List[Finding] = []
    for root in paths:
        for path, relpath in iter_sql_files(root):
            report.files_scanned += 1
            source = path.read_text(encoding="utf-8")
            findings.extend(lint_sql_source(source, relpath))
    if include_corpus:
        corpus, entries = _corpus_findings()
        findings.extend(corpus)
        report.files_scanned += entries
        plans, plan_entries = plan_corpus_findings()
        findings.extend(plans)
        report.files_scanned += plan_entries
    for finding in findings:
        if finding.matches(baseline):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.findings.sort()
    report.baselined.sort()
    return report


def _render_text(report: AnalysisReport, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    summary = (
        f"rqlint: {report.files_scanned} files/cases, "
        f"{len(report.errors)} errors, "
        f"{len(report.findings) - len(report.errors)} warnings"
    )
    if report.baselined:
        summary += f", {len(report.baselined)} baselined"
    print(summary, file=out)


def _render_json(report: AnalysisReport, out) -> None:
    payload = {
        "files_scanned": report.files_scanned,
        "findings": [vars(f) for f in report.findings],
        "baselined": [f.hashed_key for f in report.baselined],
    }
    print(json.dumps(payload, indent=2), file=out)


def run_query_lint(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.analysis --queries",
        description="rqlint: merge-class certification for RQL corpora",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help=".sql files/directories to lint (the builtin "
                             "workload corpus is always included)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: ./{DEFAULT_BASELINE} "
                             f"when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the baseline")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default=None, dest="format",
                        help="output format (default: text)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="alias for --format json")
    parser.add_argument("--no-corpus", action="store_true",
                        help="skip the builtin workload corpus")
    args = parser.parse_args(argv)

    paths = list(args.paths)
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"rqlint: no such path: {path}", file=out)
        return 2

    baseline_path = args.baseline or Path(DEFAULT_BASELINE)
    try:
        baseline = load_baseline(baseline_path)
    except AnalysisError as exc:
        print(f"rqlint: {exc}", file=out)
        return 2
    report = analyze_query_paths(paths, baseline,
                                 include_corpus=not args.no_corpus)

    if args.write_baseline:
        save_baseline(baseline_path, report.findings + report.baselined)
        print(f"rqlint: wrote {baseline_path} "
              f"({len(report.findings) + len(report.baselined)} entries)",
              file=out)
        return 0

    output_format = args.format or ("json" if args.as_json else "text")
    if output_format == "json":
        _render_json(report, out)
    elif output_format == "sarif":
        print(render_sarif(report, query_rule_descriptions(),
                           tool="rqlint"), file=out, end="")
    else:
        _render_text(report, out)
    return 0 if report.ok else 1
