"""simrace: interprocedural concurrency analysis for DES process code.

The static half of the simrace pass (the dynamic half — seeded schedule
perturbation and the access recorder — lives in :mod:`repro.sim.race`).
It discovers DES process generators, traces their shared-state accesses
and locksets through the in-module call graph, and enforces the SR rule
catalogue (see ``docs/static_analysis.md``):

* SR001 — read-modify-write straddling a yield without a held lock
* SR002 — lock/slot possibly still held when the process exits
* SR003 — inconsistent lock acquisition order between processes
* SR004 — unlocked write to an object captured by multiple processes

Run it with ``python -m repro.analysis.simrace src/``; suppress a
finding with a ``simrace: disable=SR001`` comment on the flagged line.
"""

from functools import partial
from typing import List, Set, Tuple

from repro.analysis import runner
from repro.analysis.findings import Violation
from repro.analysis.runner import SourceFile, Tool
from repro.analysis.simrace.model import ModuleModel
from repro.analysis.simrace.rules import RULES, AnalysisContext


def _check(file: SourceFile) -> List[Violation]:
    model = ModuleModel(file.tree)
    if not model.process_generators():
        return []
    context = AnalysisContext(model, model.traces(), file.path)
    found: List[Violation] = []
    seen: Set[Tuple[int, int, str]] = set()
    for rule in RULES:
        for violation in rule.check(context):
            # One process generator may be traced once per spawn binding;
            # report each (location, rule) only once.
            key = (violation.line, violation.col, violation.code)
            if key not in seen:
                seen.add(key)
                found.append(violation)
    return found


TOOL = Tool(
    name="simrace",
    check=_check,
    prefix="SR",
    rules=RULES,
    description="Interprocedural concurrency analysis for DES process code.",
    help={
        "select": "comma-separated rule codes to run (default: all), e.g. SR001,SR003",
        "json": "emit findings as JSON (shared simlint/simrace schema)",
    },
)

analyze_paths = partial(runner.check_paths, TOOL)


def analyze_source(source: str, path: str = "<string>", select=None) -> List[Violation]:
    return runner.check_sources(TOOL, [(path, source)], select)
