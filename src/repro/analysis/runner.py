"""One runner for the static-analysis family: read, parse and solve once.

A tool (simlint, simrace, simflow, simeffect, simcost, simbatch) is a
:class:`Tool` declaration; this module does the rest, once per run —
file walking, parsing (one :class:`SourceFile` per file, shared by every
tool; a ``SyntaxError`` becomes each tool's ``<prefix>000`` finding),
the whole-program model (``build_program → scan_program → fixpoint``
once per file set, shared by simeffect, simcost and simbatch, with what
they derive from it shared through :func:`shared`), and ``--select``,
scope gating, dedupe, sort and suppressions.  Suppressions are applied
after the checks, so the same raw findings drive the stale-suppression
audit (SUP001).  A :class:`Session` holds what one process has parsed
and solved, so several runs in it share the work.  The command line is
:mod:`repro.analysis.analyze`; docs/static_analysis.md has the protocol.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional
from typing import Sequence, Set, Tuple

from repro.analysis.findings import ALL_CODES, Violation, parse_suppressions

#: Layers whose timing and state discipline the sim-scope rules police
#: (workloads/experiments may legitimately use other units and clocks).
SIM_SCOPE_DIRS = frozenset({"sim", "ssd", "host", "core", "interconnect"})

#: simbatch's hot-path scope.  Wider than the sim scope: the workload
#: emit loops and sweep drivers generate the access streams the engine
#: replays, so their loops are classified too.
BATCH_SCOPE_DIRS = frozenset(
    {"host", "core", "ssd", "interconnect", "workloads", "sweep"}
)


def under_repro(path: str, dirs: Set[str]) -> bool:
    """Whether ``path`` lies under ``repro/<one of dirs>/``."""
    parts = Path(path).parts
    return any(
        part == "repro" and parts[index + 1] in dirs
        for index, part in enumerate(parts[:-1])
    )


def infer_sim_scope(path: str) -> bool:
    """In simulation scope: under ``repro/<one of SIM_SCOPE_DIRS>/``."""
    return under_repro(path, SIM_SCOPE_DIRS)


def infer_batch_scope(path: str) -> bool:
    """In simbatch's scope: under ``repro/<one of BATCH_SCOPE_DIRS>/``."""
    return under_repro(path, BATCH_SCOPE_DIRS)


# --------------------------------------------------------------------------
# The Tool protocol
# --------------------------------------------------------------------------


class Report(NamedTuple):
    """A tool's machine-readable report (``--report [FILE]``)."""

    default_file: str  #: e.g. ``EFFECTS.json``
    build: Callable[[Any], Dict[str, object]]  #: Program -> document
    summary: str  #: "wrote FILE — <this>", formatted with document["summary"]


class Audit(NamedTuple):
    """A tool's one audit: ``flag`` runs ``rule`` instead of the catalogue."""

    flag: str
    rule: Any
    check: Callable[[Any], Iterable[Violation]]  #: Program -> findings


class Tool(NamedTuple):
    """What a static-analysis tool declares; the runner does the rest.

    ``check`` takes one :class:`SourceFile` or, for a ``whole_program``
    tool, the solved Program, and yields :class:`Violation` findings.  Rules
    carry ``code``, ``title``, ``explanation`` and ``sim_scope_only``;
    findings of a ``sim_scope_only`` rule are dropped outside ``scope``
    (``None``: no scope).  ``name`` is also the suppression marker, and
    ``help`` holds the tool's command-line help texts, keyed by option
    (``paths`` and ``json`` have defaults).
    """

    name: str
    check: Callable[[Any], Iterable[Violation]]
    prefix: str = ""
    rules: Sequence[Any] = ()
    scope: Optional[Callable[[str], bool]] = None
    whole_program: bool = False
    report: Optional[Report] = None
    audit: Optional[Audit] = None
    description: str = ""
    help: Dict[str, str] = {}

    def all_rules(self) -> Tuple[Any, ...]:
        return tuple(self.rules) + ((self.audit.rule,) if self.audit else ())


class Rule:
    """One catalogue entry.  A per-file rule's ``check`` yields
    :meth:`violation` findings (``ctx.path`` names the file)."""

    code = ""
    title = ""
    explanation = ""
    sim_scope_only = False

    def violation(self, ctx: Any, node: ast.AST, message: str) -> Violation:
        line, col = getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
        return Violation(ctx.path, line, col, self.code, message)


#: How a whole-program rule reports: ``report(code, path, line, col, message)``.
ReportFn = Callable[[str, str, int, int, str], None]


class ProgramRule(Rule):
    """A whole-program rule: ``check`` walks the solved Program (or the
    tool's analysis of it) and calls ``report`` once per finding."""

    sim_scope_only = True

    def check(self, subject: Any, report: ReportFn) -> None:
        raise NotImplementedError


def collect(
    rules: Iterable[ProgramRule],
    program: Any,
    derive: Optional[Callable[[Any], Any]] = None,
) -> List[Violation]:
    """Run whole-program rules over the program, or over what ``derive``
    makes of it (shared), into a list of findings."""
    subject = program if derive is None else shared(program, derive)
    found: List[Violation] = []

    def report(code: str, path: str, line: int, col: int, message: str) -> None:
        found.append(Violation(path, line, col, code, message))

    for rule in rules:
        rule.check(subject, report)
    return found


def shared(program: Any, derive: Callable[[Any], Any]) -> Any:
    """``derive(program)``, computed once per program and shared by the
    tools: cost and batch analyses, the certified-kernel list, reports."""
    if derive not in program.derived:
        program.derived[derive] = derive(program)
    return program.derived[derive]


# --------------------------------------------------------------------------
# Files, parsing, the shared Program
# --------------------------------------------------------------------------


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """The ``*.py`` files under ``paths``: each directory's sorted, the
    arguments in order, a file reached twice kept at its first place."""
    out: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("*.py"))
        else:
            found = [path] if path.suffix == ".py" else []
        for file in found:
            if file.resolve() not in seen:
                seen.add(file.resolve())
                out.append(file)
    return out


class SourceFile:
    """One input file, parsed once and shared by every tool."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            self.error = error
        self._suppressions: Dict[str, Dict[int, Set[str]]] = {}

    def syntax_finding(self, prefix: str) -> Violation:
        line = self.error.lineno or 1
        col = (self.error.offset or 1) - 1
        message = f"syntax error: {self.error.msg}"
        return Violation(self.path, line, col, prefix + "000", message)

    def suppressions(self, tool: str) -> Dict[int, Set[str]]:
        """This file's ``# <tool>: disable`` table (line -> codes)."""
        if tool not in self._suppressions:
            self._suppressions[tool] = parse_suppressions(self.lines, tool)
        return self._suppressions[tool]


def build_program(files: Sequence[SourceFile]) -> Any:
    """The solved whole-program model of the parseable ``files``."""
    # Imported here: the model's package imports this module.
    from repro.analysis.simeffect.model import build_program as build_model
    from repro.analysis.simeffect.scan import fixpoint, scan_program

    parsed = [(f.path, f.tree, f.source) for f in files if f.tree is not None]
    program = build_model(parsed)
    scan_program(program)
    fixpoint(program)
    return program


class Session:
    """The files read and the programs solved by one process's runs."""

    def __init__(self) -> None:
        self.files: Dict[str, SourceFile] = {}
        self.programs: Dict[Tuple[str, ...], Any] = {}

    def read(self, path: Path) -> SourceFile:
        """The parsed file; raises ``OSError``/``UnicodeDecodeError``."""
        if str(path) not in self.files:
            source = path.read_text(encoding="utf-8")
            self.files[str(path)] = SourceFile(str(path), source)
        return self.files[str(path)]

    def program(self, files: Sequence[SourceFile]) -> Any:
        key = tuple(file.path for file in files)
        if key not in self.programs:
            self.programs[key] = build_program(files)
        return self.programs[key]

    def __del__(self) -> None:
        # What the tools derived from a program refers back to it: drop it,
        # so the program is freed with the session, not by the cycle collector.
        for program in self.programs.values():
            program.derived.clear()


# --------------------------------------------------------------------------
# Findings: select, scope, dedupe, sort, suppressions
# --------------------------------------------------------------------------


def findings(
    tool: Tool,
    files: Sequence[SourceFile],
    session: Session,
    select: Optional[Set[str]] = None,
    audit: bool = False,
) -> List[Violation]:
    """Every finding of ``tool`` over ``files`` before suppressions: per
    file and sorted by location, or (whole-program) sorted by path.
    ``audit`` runs the audit rule instead of the catalogue; a syntax
    error is always reported."""
    if audit:
        select = {tool.audit.rule.code}
    scoped = set()
    if tool.scope is not None:
        scoped = {rule.code for rule in tool.all_rules() if rule.sim_scope_only}
    seen: Set[Violation] = set()

    def kept(found: Iterable[Violation]) -> List[Violation]:
        out = []
        for violation in found:
            if select is not None and violation.code not in select:
                continue
            if violation.code in scoped and not tool.scope(violation.path):
                continue
            if violation not in seen:
                seen.add(violation)
                out.append(violation)
        return out

    out: List[Violation] = []
    if tool.whole_program:
        out = [f.syntax_finding(tool.prefix) for f in files if f.tree is None]
        check = tool.audit.check if audit else tool.check
        out.extend(kept(check(session.program(files))))
        out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return out
    # A file no rule of the tool applies to is not checked at all.
    gated = bool(tool.rules) and all(rule.code in scoped for rule in tool.rules)
    for file in files:
        if file.tree is None:
            out.append(file.syntax_finding(tool.prefix))
        elif not gated or tool.scope(file.path):
            out.extend(sorted(kept(tool.check(file)),
                              key=lambda v: (v.line, v.col, v.code)))
    return out


def unsuppressed(
    tool: Tool, files: Sequence[SourceFile], found: Iterable[Violation]
) -> List[Violation]:
    """``found`` minus what a ``# <tool>: disable`` comment on the line
    shields (a syntax error cannot be suppressed)."""
    tables = {file.path: file.suppressions(tool.name) for file in files}

    def shielded(violation: Violation) -> bool:
        codes = tables.get(violation.path, {}).get(violation.line, ())
        return violation.code != tool.prefix + "000" and (
            ALL_CODES in codes or violation.code in codes
        )

    return [violation for violation in found if not shielded(violation)]


# --------------------------------------------------------------------------
# Library entry points (each tool binds these as its public functions)
# --------------------------------------------------------------------------


def read_sources(paths: Iterable[str]) -> List[Tuple[str, str]]:
    """(path, source) for every Python file under ``paths``."""
    return [(str(p), p.read_text(encoding="utf-8")) for p in iter_python_files(paths)]


def check_sources(
    tool: Tool,
    sources: Sequence[Tuple[str, str]],
    select: Optional[Iterable[str]] = None,
    apply_suppressions: bool = True,
    audit: bool = False,
) -> List[Violation]:
    """``tool``'s findings over (path, source) pairs."""
    files = [SourceFile(path, source) for path, source in sources]
    wanted = None if select is None else {code.upper() for code in select}
    found = findings(tool, files, Session(), wanted, audit)
    return unsuppressed(tool, files, found) if apply_suppressions else found


def check_paths(
    tool: Tool,
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    apply_suppressions: bool = True,
) -> List[Violation]:
    """``tool``'s findings over every Python file under ``paths``."""
    return check_sources(tool, read_sources(paths), select, apply_suppressions)


def report_for_paths(tool: Tool, paths: Iterable[str]) -> Dict[str, object]:
    """``tool``'s report over the program under ``paths``."""
    files = [SourceFile(path, source) for path, source in read_sources(paths)]
    return shared(Session().program(files), tool.report.build)
