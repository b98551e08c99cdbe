"""Shared findings plumbing for the repo's static-analysis tools.

Every tool reports findings through one schema, so CI annotations and
downstream tooling can consume any tool's output without caring which
produced it:

* :class:`Violation` — one finding at a source location, with a stable
  rule code (``SL###``, ``SR###``, ...).
* :func:`findings_json` — the shared ``--json`` serialization
  (``{"tool", "schema_version", "count", "files_checked", "findings"}``).
* :func:`parse_suppressions` — per-line ``# <tool>: disable=CODE``
  comment parsing; every tool uses identical suppression syntax.
* :func:`unused_suppressions` — stale-suppression detection
  (``SUP001``): the comments that shield no finding of an unsuppressed
  run, so dead ``disable=`` markers can't accumulate.
  :func:`strip_suppression_comments` neutralizes the markers of one
  tool in a source string, line numbers preserved.
* :func:`load_baseline` / :func:`write_baseline` /
  :func:`filter_baseline` — ``--baseline`` support: snapshot the
  current findings and report only ones not in the snapshot, so a new
  rule can land without a suppress-everything commit.

A baseline file is simply a findings JSON document (the exact output of
``--json`` / ``--write-baseline``), matched on ``(path, code, message)``
— line numbers are excluded so unrelated edits don't un-baseline a
finding.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Version of the shared findings JSON schema; bump on breaking changes.
SCHEMA_VERSION = 1

#: Marker meaning "every rule suppressed on this line".
ALL_CODES = "*"


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def findings_json(
    tool: str,
    violations: Sequence[Violation],
    files_checked: Optional[int] = None,
) -> str:
    """Serialize findings to the shared JSON schema (one object, indented)."""
    payload: Dict[str, object] = {
        "tool": tool,
        "schema_version": SCHEMA_VERSION,
        "count": len(violations),
        "findings": [asdict(violation) for violation in violations],
    }
    if files_checked is not None:
        payload["files_checked"] = files_checked
    return json.dumps(payload, indent=2, sort_keys=True)


def _suppress_re(tool: str) -> "re.Pattern[str]":
    return re.compile(
        rf"#\s*{re.escape(tool)}:\s*disable(?:=(?P<codes>[A-Za-z0-9_, ]+))?"
    )


def parse_suppressions(lines: Sequence[str], tool: str) -> Dict[int, Set[str]]:
    """Per-line suppression table for ``# <tool>: disable[=C1,C2]`` comments."""
    pattern = _suppress_re(tool)
    table: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = pattern.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            table[number] = {ALL_CODES}
        else:
            table[number] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return table


#: Rule code for a suppression comment that suppresses nothing.
UNUSED_SUPPRESSION_CODE = "SUP001"


def strip_suppression_comments(source: str, tool: str) -> str:
    """Neutralize every ``# <tool>: disable`` comment in ``source``.

    Each marker is replaced by a bare ``#`` so line numbers (and the fact
    that the tail of the line is a comment) are preserved; re-running a
    tool over the stripped source yields the findings the suppressions
    were hiding.
    """
    pattern = _suppress_re(tool)
    return "\n".join(pattern.sub("#", line) for line in source.splitlines())


def unused_suppressions(
    path: str,
    lines: Sequence[str],
    tool: str,
    raw_violations: Sequence[Violation],
) -> List[Violation]:
    """Suppression comments in ``lines`` that shield no actual finding.

    ``raw_violations`` must be the tool's findings with suppressions
    *not applied*.
    Returns one ``SUP001`` violation per stale comment: either no finding
    exists on the line at all, or specific codes are listed and none of
    them fires there.
    """
    table = parse_suppressions(lines, tool)
    by_line: Dict[int, Set[str]] = {}
    for violation in raw_violations:
        if violation.path == path:
            by_line.setdefault(violation.line, set()).add(violation.code)
    stale: List[Violation] = []
    for number in sorted(table):
        codes = table[number]
        fired = by_line.get(number, set())
        if ALL_CODES in codes:
            if not fired:
                stale.append(
                    Violation(
                        path,
                        number,
                        0,
                        UNUSED_SUPPRESSION_CODE,
                        f"unused suppression: no {tool} finding on this line",
                    )
                )
            continue
        unused = sorted(codes - fired)
        if unused:
            stale.append(
                Violation(
                    path,
                    number,
                    0,
                    UNUSED_SUPPRESSION_CODE,
                    (
                        f"unused suppression: {', '.join(unused)} "
                        f"never fire(s) on this line"
                    ),
                )
            )
    return stale


# --------------------------------------------------------------------------
# Baselines: report only findings that are new relative to a snapshot
# --------------------------------------------------------------------------

#: A baseline identity for one finding; deliberately line-insensitive.
BaselineKey = Tuple[str, str, str]


def baseline_key(violation: Violation) -> BaselineKey:
    return (violation.path, violation.code, violation.message)


def load_baseline(path: str) -> Set[BaselineKey]:
    """Load the set of baselined finding keys from a findings JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    keys: Set[BaselineKey] = set()
    for finding in document.get("findings", []):
        keys.add(
            (
                str(finding.get("path", "")),
                str(finding.get("code", "")),
                str(finding.get("message", "")),
            )
        )
    return keys


def write_baseline(
    path: str,
    tool: str,
    violations: Sequence[Violation],
    files_checked: Optional[int] = None,
) -> None:
    """Snapshot the current findings as a baseline file (findings JSON)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(findings_json(tool, violations, files_checked=files_checked))
        handle.write("\n")


def filter_baseline(
    violations: Sequence[Violation], keys: Set[BaselineKey]
) -> List[Violation]:
    """Drop findings whose (path, code, message) appear in the baseline."""
    return [v for v in violations if baseline_key(v) not in keys]
