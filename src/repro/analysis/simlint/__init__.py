"""simlint: domain-specific static analysis for the FlatFlash simulator.

Usage::

    python -m repro.analysis.simlint src/           # lint a tree
    python -m repro.analysis.simlint --list-rules   # show the rule catalogue

See ``docs/static_analysis.md`` for the rule catalogue and suppression
syntax (a ``simlint: disable=SL001`` comment).
"""

from functools import partial
from typing import Iterator, List

from repro.analysis import runner
from repro.analysis.findings import Violation
from repro.analysis.runner import SourceFile, Tool, infer_sim_scope
from repro.analysis.simlint.rules import RULES


def _check(file: SourceFile) -> Iterator[Violation]:
    in_scope = infer_sim_scope(file.path)
    for rule in RULES:
        if in_scope or not rule.sim_scope_only:  # the rest would be dropped
            yield from rule.check(file.tree, file)


TOOL = Tool(
    name="simlint",
    check=_check,
    prefix="SL",
    rules=RULES,
    scope=infer_sim_scope,
    description="Domain-specific static analysis for the FlatFlash simulator.",
    help={
        "paths": "files or directories to lint (directories are walked for *.py)",
        "select": "comma-separated rule codes to run (default: all), e.g. SL001,SL003",
        "json": "emit findings as JSON (shared simlint/simrace schema)",
    },
)

lint_paths = partial(runner.check_paths, TOOL)


def lint_source(source: str, path: str = "<string>", select=None) -> List[Violation]:
    return runner.check_sources(TOOL, [(path, source)], select)
