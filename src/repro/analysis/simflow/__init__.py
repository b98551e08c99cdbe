"""simflow: address-space & unit flow analysis for the FlatFlash simulator.

The third member of the repo's analysis family.  simlint checks
token-level simulation hygiene, simrace checks cross-yield atomicity;
simflow tracks *what kind of number* flows where — virtual pages, host
frames, BAR-window device pages, logical pages, physical pages, erase
blocks and time units — and flags cross-domain mixing (rules
SF001–SF005, all sim-scope-only).  Kinds come annotation-first from
:mod:`repro.units`, then the sanctioned-translation registry, then
identifier heuristics.

Run it with ``python -m repro.analysis.simflow src/`` (exit 1 on
findings) or through the :mod:`repro.analysis.analyze` umbrella.  The
dynamic counterpart is :mod:`repro.sim.domain_tags`.
"""

import ast
from functools import partial
from typing import List

from repro.analysis import runner
from repro.analysis.findings import Violation
from repro.analysis.runner import SourceFile, Tool, infer_sim_scope
from repro.analysis.simflow.model import check_module
from repro.analysis.simflow.rules import RULES


def _check(file: SourceFile) -> List[Violation]:
    found: List[Violation] = []

    def report(code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        found.append(Violation(file.path, line, col, code, message))

    check_module(file.tree, report)
    return found


TOOL = Tool(
    name="simflow",
    check=_check,
    prefix="SF",
    rules=RULES,
    scope=infer_sim_scope,
    description="Address-space and unit flow analysis for the FlatFlash simulator.",
    help={
        "select": "comma-separated rule codes to run (default: all), e.g. SF001,SF003",
        "json": "emit findings as JSON (shared simlint/simrace/simflow schema)",
    },
)

analyze_paths = partial(runner.check_paths, TOOL)


def analyze_source(source: str, path: str = "<string>", select=None) -> List[Violation]:
    return runner.check_sources(TOOL, [(path, source)], select)
