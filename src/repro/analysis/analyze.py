"""The analyzer command line: one tool, or all six merged (the umbrella).

``python -m repro.analysis.<tool> [paths]`` runs one tool;
``python -m repro analyze [paths]`` (or ``python -m repro.analysis.analyze``)
runs simlint, simrace, simflow, simeffect, simcost and simbatch over
the same files and merges their findings into a single report (or, with
``--json``, a single findings document in the shared schema of
:mod:`repro.analysis.findings`, with each finding carrying a ``tool``
field).  Every run goes through :mod:`repro.analysis.runner`: each
file is parsed once and the whole-program tools share one Program.

Exit status: 0 when clean, 1 when any tool found anything, and 2 when a
tool *crashed* on a file (umbrella) or an input is unreadable — a crash
means that file was never actually checked, so it must not be mistaken
for a clean pass.

``--check-suppressions`` audits ``# <tool>: disable=`` comments: a
comment that shields no finding of the run is reported as ``SUP001``,
keeping dead markers from accumulating.

The merged document is also a valid ``--baseline`` snapshot: rule codes
are disjoint across tools (SL/SR/SF/SE/SC/SB), so one baseline file can
cover all six analyses at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import simbatch, simcost, simeffect, simflow, simlint, simrace
from repro.analysis.findings import (
    SCHEMA_VERSION,
    Violation,
    filter_baseline,
    findings_json,
    load_baseline,
    unused_suppressions,
    write_baseline,
)
from repro.analysis.runner import (
    Session,
    SourceFile,
    Tool,
    findings,
    iter_python_files,
    shared,
    unsuppressed,
)

#: The analysis families, in report order.
TOOLS: Tuple[Tool, ...] = (
    simlint.TOOL,
    simrace.TOOL,
    simflow.TOOL,
    simeffect.TOOL,
    simcost.TOOL,
    simbatch.TOOL,
)

TOOLS_BY_NAME: Dict[str, Tool] = {tool.name: tool for tool in TOOLS}

#: The crash "path" of a whole-program tool.
WHOLE_PROGRAM = "<whole-program>"


class Crash:
    """One analyzer failure: the file was not actually checked."""

    __slots__ = ("tool", "path", "error")

    def __init__(self, tool: str, path: str, error: BaseException) -> None:
        self.tool = tool
        self.path = path
        self.error = f"{type(error).__name__}: {error}"

    def as_dict(self) -> Dict[str, str]:
        return {"tool": self.tool, "path": self.path, "error": self.error}

    def format(self) -> str:
        return f"{self.tool}: CRASH analyzing {self.path}: {self.error}"


def run_all(
    paths: Sequence[str],
    check_suppressions: bool = False,
    session: Optional[Session] = None,
) -> Tuple[Dict[str, List[Violation]], int, List[Crash]]:
    """Run every tool over ``paths``.

    Returns ``(per-tool findings, #files, crashes)``; with
    ``check_suppressions`` the stale-suppression findings come back as
    the ``"suppressions"`` entry.  A tool raising on a file is recorded
    as a crash instead of aborting the whole run, so one bad file can't
    hide every other tool's findings — but the caller must exit
    non-zero, because the crashed (tool, file) pair was never actually
    analyzed.
    """
    session = session or Session()
    files = iter_python_files(paths)
    read: List[Tuple[str, Optional[SourceFile], Optional[Exception]]] = []
    for path in files:
        try:
            read.append((str(path), session.read(path), None))
        except Exception as error:
            read.append((str(path), None, error))
    sources = [file for _, file, _ in read if file is not None]
    unreadable = [error for _, file, error in read if file is None]

    per_tool: Dict[str, List[Violation]] = {}
    crashes: List[Crash] = []
    stale: List[Violation] = []
    for entry in TOOLS:
        tool = Tool(*entry)  # entries may also be bare (name, per-file check)
        raw: List[Violation] = []
        checked: List[SourceFile] = []
        if tool.whole_program and unreadable:  # the program is incomplete
            crashes.append(Crash(tool.name, WHOLE_PROGRAM, unreadable[0]))
        elif tool.whole_program:
            try:
                raw = findings(tool, sources, session)
                checked = sources
            except Exception as error:
                crashes.append(Crash(tool.name, WHOLE_PROGRAM, error))
        else:
            for path, file, read_error in read:
                if file is None:
                    crashes.append(Crash(tool.name, path, read_error))
                    continue
                try:
                    raw.extend(findings(tool, [file], session))
                    checked.append(file)
                except Exception as error:
                    crashes.append(Crash(tool.name, path, error))
        per_tool[tool.name] = unsuppressed(tool, checked, raw)
        if check_suppressions:
            for file in checked:
                for violation in unused_suppressions(file.path, file.lines, tool.name, raw):
                    stale.append(
                        replace(violation, message=f"[{tool.name}] {violation.message}")
                    )
    if check_suppressions:
        stale.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        per_tool["suppressions"] = stale
    return per_tool, len(files), crashes


def check_suppressions(paths: Sequence[str]) -> Tuple[List[Violation], List[Crash]]:
    """Audit suppression comments under ``paths``; stale ones → SUP001.

    A marker whose line shows no finding of the listed codes in the
    unsuppressed run is stale.  Findings keep the tool name in the
    message so mixed reports stay readable.
    """
    per_tool, _files, crashes = run_all(paths, check_suppressions=True)
    return per_tool["suppressions"], crashes


def merged_document(
    per_tool: Dict[str, List[Violation]],
    files_checked: int,
    crashes: Sequence[Crash] = (),
) -> Dict[str, object]:
    """The merged findings document (shared schema + per-finding ``tool``)."""
    found: List[Dict[str, object]] = []
    for tool, violations in per_tool.items():
        for violation in violations:
            entry: Dict[str, object] = asdict(violation)
            entry["tool"] = tool
            found.append(entry)
    found.sort(key=lambda f: (f["path"], f["line"], f["col"], f["code"]))
    document: Dict[str, object] = {
        "tool": "analyze",
        "schema_version": SCHEMA_VERSION,
        "count": len(found),
        "files_checked": files_checked,
        "by_tool": {tool: len(violations) for tool, violations in per_tool.items()},
        "findings": found,
    }
    if crashes:
        document["crashes"] = [crash.as_dict() for crash in crashes]
    return document


# --------------------------------------------------------------------------
# The one parser
# --------------------------------------------------------------------------


def configure_parser(
    parser: argparse.ArgumentParser, tool: Optional[Tool] = None
) -> None:
    """The umbrella's options (``tool`` None) or one tool's."""
    if tool is None:
        parser.add_argument(
            "paths",
            nargs="*",
            default=["src/repro"],
            help="files or directories to analyze (default: src/repro)",
        )
        parser.add_argument(
            "--json",
            action="store_true",
            help="emit the merged findings document as JSON",
        )
        parser.add_argument(
            "--check-suppressions",
            action="store_true",
            help="also flag stale '# <tool>: disable=' comments (SUP001)",
        )
    else:
        texts = {
            "paths": (
                "files or directories to analyze as ONE program (directories are "
                "walked for *.py; default src/repro when --report is given)"
                if tool.whole_program
                else "files or directories to analyze (directories are walked for *.py)"
            ),
            "json": "emit findings as JSON (shared analysis-family schema)",
            **tool.help,
        }
        parser.add_argument("paths", nargs="*", help=texts["paths"])
        parser.add_argument("--select", metavar="CODES", help=texts["select"])
        parser.add_argument(
            "--list-rules",
            action="store_true",
            help="print the rule catalogue and exit",
        )
        parser.add_argument("--json", action="store_true", help=texts["json"])
        if tool.report is not None:
            parser.add_argument(
                "--report",
                nargs="?",
                const=tool.report.default_file,
                metavar="FILE",
                help=texts["report"],
            )
        if tool.audit is not None:
            parser.add_argument(
                tool.audit.flag, dest="audit", action="store_true",
                help=texts["audit"],
            )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="report only findings not present in this baseline snapshot",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="snapshot the current findings to FILE (findings JSON) and exit 0",
    )


def list_rules(tool: Tool) -> str:
    lines = [f"{tool.name} rule catalogue:", ""]
    for rule in tool.all_rules():
        tag = ""
        if tool.scope is not None:
            tag = "sim scope only" if rule.sim_scope_only else "all files"
            if tool.audit is not None and rule is tool.audit.rule:
                tag += f"; {tool.audit.flag} only"
            tag = f"  [{tag}]"
        lines.append(f"  {rule.code}  {rule.title}{tag}")
        lines.append(f"         {rule.explanation}")
    return "\n".join(lines)


def run_tool(
    args: argparse.Namespace,
    tool: Tool,
    parser: argparse.ArgumentParser,
    session: Optional[Session] = None,
) -> int:
    """One tool's command line."""
    if args.list_rules:
        print(list_rules(tool))
        return 0
    report = getattr(args, "report", None)
    if not args.paths:
        if not report:
            example = "src/repro" if tool.whole_program else "src/"
            parser.error(
                f"no paths given (try: python -m repro.analysis.{tool.name} {example})"
            )
        args.paths = ["src/repro"]

    select = None
    if args.select:
        select = {code.strip().upper() for code in args.select.split(",") if code.strip()}
        known = {rule.code for rule in tool.all_rules()} | {tool.prefix + "000"}
        unknown = sorted(select - known)
        if unknown:
            parser.error(
                f"unknown rule code(s): {', '.join(unknown)} (see --list-rules)"
            )

    paths = iter_python_files(args.paths)
    if not paths:
        print(
            f"{tool.name}: no Python files found under the given paths",
            file=sys.stderr,
        )
        return 0
    session = session or Session()
    files: List[SourceFile] = []
    for path in paths:
        try:
            files.append(session.read(path))
        except (OSError, UnicodeDecodeError) as error:
            where = "input" if tool.whole_program else str(path)
            print(f"{tool.name}: cannot read {where}: {error}", file=sys.stderr)
            return 2

    audit = getattr(args, "audit", False)
    violations = unsuppressed(
        tool, files, findings(tool, files, session, select, audit)
    )

    if report:
        document = shared(session.program(files), tool.report.build)
        with open(report, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        summary = tool.report.summary.format(**document["summary"])
        print(f"{tool.name}: wrote {report} — {summary}")

    if args.write_baseline:
        write_baseline(args.write_baseline, tool.name, violations, len(files))
        print(
            f"{tool.name}: wrote baseline with {len(violations)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0
    if args.baseline:
        violations = filter_baseline(violations, load_baseline(args.baseline))

    if args.json:
        print(findings_json(tool.name, violations, files_checked=len(files)))
        return 1 if violations else 0

    for violation in violations:
        print(violation.format())
    if violations:
        print(f"\n{tool.name}: {len(violations)} violation(s) in {len(files)} file(s)")
        return 1
    print(f"{tool.name}: {len(files)} file(s) clean")
    return 0


def run(args: argparse.Namespace, session: Optional[Session] = None) -> int:
    """The umbrella's command line."""
    per_tool, files_checked, crashes = run_all(
        args.paths, getattr(args, "check_suppressions", False), session
    )

    if getattr(args, "write_baseline", None):
        document = merged_document(per_tool, files_checked, crashes)
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"analyze: wrote baseline with {document['count']} finding(s) "
            f"to {args.write_baseline}"
        )
        return 2 if crashes else 0
    if getattr(args, "baseline", None):
        keys = load_baseline(args.baseline)
        per_tool = {
            tool: filter_baseline(violations, keys)
            for tool, violations in per_tool.items()
        }

    total = sum(len(v) for v in per_tool.values())
    if args.json:
        print(
            json.dumps(
                merged_document(per_tool, files_checked, crashes),
                indent=2,
                sort_keys=True,
            )
        )
        if crashes:
            return 2
        return 1 if total else 0

    for tool in per_tool:
        for violation in per_tool[tool]:
            print(f"{tool}: {violation.format()}")
    for crash in crashes:
        print(crash.format(), file=sys.stderr)
    summary = ", ".join(f"{tool}: {len(per_tool[tool])}" for tool in per_tool)
    if crashes:
        print(
            f"\nanalyze: {len(crashes)} tool crash(es) — "
            f"the affected files were NOT fully analyzed",
            file=sys.stderr,
        )
        return 2
    if total:
        print(f"\nanalyze: {total} violation(s) in {files_checked} file(s) ({summary})")
        return 1
    print(f"analyze: {files_checked} file(s) clean across {len(per_tool)} tools")
    return 0


def main(
    argv: Optional[List[str]] = None,
    tool: Optional[str] = None,
    session: Optional[Session] = None,
) -> int:
    """``python -m repro.analysis.<tool>`` (``tool`` given) or the umbrella."""
    if tool is None:
        parser = argparse.ArgumentParser(
            prog="python -m repro.analysis.analyze",
            description=(
                "Run simlint + simrace + simflow + simeffect + simcost + "
                "simbatch and merge their findings."
            ),
        )
        configure_parser(parser)
        return run(parser.parse_args(argv), session)
    spec = TOOLS_BY_NAME[tool]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.analysis.{spec.name}", description=spec.description
    )
    configure_parser(parser, spec)
    return run_tool(parser.parse_args(argv), spec, parser, session)


def cli(tool: Optional[str] = None) -> None:
    """Process entry point: exit with :func:`main`'s status."""
    try:
        sys.exit(main(tool=tool))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)


if __name__ == "__main__":
    cli()
