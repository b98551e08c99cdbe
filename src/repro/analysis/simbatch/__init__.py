"""simbatch: loop-dependence & batching-safety analysis.

The reorder oracle for the vectorized engine: classifies every hot-path
loop as VECTORIZABLE, REDUCTION(op), or ORDER_DEPENDENT, checks declared
``@batchable``/``@reduction`` contracts (:mod:`repro.batch`) against the
derived dependences (SB001–SB006; SB007 under ``--check-opportunities``),
and emits the committed ``BATCH.json`` report.
"""

from functools import partial
from typing import Dict, List, Set

from repro.batch import COMMUTATIVE_OPS
from repro.analysis import runner
from repro.analysis.runner import (
    BATCH_SCOPE_DIRS,
    Audit,
    Report,
    Tool,
    collect,
    infer_batch_scope,
    shared,
)
from repro.analysis.simeffect import build_report as effects_report
from repro.analysis.simeffect.model import Program, short_name
from repro.analysis.simbatch.model import (
    BatchAnalysis,
    LoopFacts,
    REDUCTION,
    VECTORIZABLE,
    build_batch_analysis,
)
from repro.analysis.simbatch.rules import (
    OPPORTUNITY_RULE,
    OPPORTUNITY_RULE_CODE,
    RULES,
    region_violation_codes,
)


def solve(program: Program) -> BatchAnalysis:
    """Classify every in-scope loop against the certified-kernel set."""
    certified = {
        "repro." + short for short in shared(program, effects_report)["certified"]
    }
    return build_batch_analysis(program, certified, infer_batch_scope)


# --------------------------------------------------------------------------
# Batch report (BATCH.json)
# --------------------------------------------------------------------------


def _dep_json(dep) -> Dict[str, object]:
    return {
        "name": dep.name,
        "kind": dep.kind,
        "op": dep.op,
        "line": dep.line,
        "read_line": dep.read_line,
        "via": [short_name(step) for step in dep.via],
        "detail": dep.detail,
    }


def _loop_json(loop: LoopFacts, declared: bool) -> Dict[str, object]:
    return {
        "function": short_name(loop.function),
        "file": loop.path,
        "line": loop.line,
        "kind": loop.kind,
        "iterates": loop.iterates,
        "classification": loop.classification,
        "reduction_ops": list(loop.reduction_ops),
        "declared": declared,
        "carried": [_dep_json(dep) for dep in loop.carried],
        "calls": sorted(short_name(callee) for callee in loop.calls),
        "kernel_calls": sorted(short_name(callee) for callee in loop.kernel_calls),
    }


def _count_opportunities(analysis: BatchAnalysis) -> int:
    count = 0
    for loop in analysis.loops:
        contract = analysis.contracts.get(loop.function)
        if contract is not None and contract.batchable:
            continue
        if loop.classification != "ORDER_DEPENDENT" and loop.kernel_calls:
            count += 1
    return count


def build_report(program: Program) -> Dict[str, object]:
    """The machine-readable reorder oracle for BATCH.json."""
    analysis = shared(program, solve)
    violations_by_region = region_violation_codes(analysis)

    loops_json: List[Dict[str, object]] = []
    counts = {VECTORIZABLE: 0, REDUCTION: 0, "ORDER_DEPENDENT": 0}
    for loop in analysis.loops:
        contract = analysis.contracts.get(loop.function)
        declared = contract is not None and contract.batchable
        counts[loop.classification] = counts.get(loop.classification, 0) + 1
        loops_json.append(_loop_json(loop, declared))

    regions: List[Dict[str, object]] = []
    for qualname in sorted(analysis.contracts):
        contract = analysis.contracts[qualname]
        if not contract.batchable:
            continue
        fn = program.functions[qualname]
        loops = analysis.loops_by_function.get(qualname, [])
        codes = violations_by_region.get(qualname, [])
        certified = not codes and all(
            loop.classification in (VECTORIZABLE, REDUCTION) for loop in loops
        ) and bool(loops)
        kernel_calls: Set[str] = set()
        for loop in loops:
            kernel_calls.update(loop.kernel_calls)
        regions.append({
            "function": short_name(qualname),
            "file": program.paths[fn.module],
            "line": fn.lineno,
            "reductions": [
                {"var": r.var, "op": r.op} for r in contract.reductions
            ],
            "loops": [loop.line for loop in loops],
            "kernel_calls": sorted(short_name(k) for k in kernel_calls),
            "certified": certified,
            "violations": codes,
        })

    certified_regions = sum(1 for region in regions if region["certified"])
    return {
        "tool": "simbatch",
        "schema_version": 1,
        "commutative_ops": sorted(COMMUTATIVE_OPS),
        "scope_dirs": sorted(BATCH_SCOPE_DIRS),
        "summary": {
            "loops": len(analysis.loops),
            "vectorizable": counts[VECTORIZABLE],
            "reduction": counts[REDUCTION],
            "order_dependent": counts["ORDER_DEPENDENT"],
            "regions": len(regions),
            "certified_regions": certified_regions,
            "opportunities": _count_opportunities(analysis),
        },
        "regions": regions,
        "loops": loops_json,
    }


TOOL = Tool(
    name="simbatch",
    check=partial(collect, RULES, derive=solve),
    prefix="SB",
    rules=RULES,
    scope=infer_batch_scope,
    whole_program=True,
    report=Report(
        "BATCH.json",
        build_report,
        "{loops} loop(s): {vectorizable} vectorizable, {reduction} reduction, "
        "{order_dependent} order-dependent; "
        "{certified_regions}/{regions} region(s) certified",
    ),
    audit=Audit(
        "--check-opportunities",
        OPPORTUNITY_RULE,
        partial(collect, (OPPORTUNITY_RULE,), derive=solve),
    ),
    description=(
        "Static loop-dependence & batching-safety analysis for the "
        "FlatFlash simulator."
    ),
    help={
        "select": "comma-separated rule codes to run (default: all), e.g. SB001,SB003",
        "report": (
            "write the loop-classification reorder oracle to FILE "
            "(default BATCH.json) in addition to reporting findings"
        ),
        "audit": (
            "run the SB007 coverage audit (provably batchable loops nobody "
            "declared) instead of the SB contract rules"
        ),
    },
)

analyze_sources = partial(runner.check_sources, TOOL)
analyze_paths = partial(runner.check_paths, TOOL)
opportunity_violations = partial(runner.check_sources, TOOL, audit=True)
report_for_paths = partial(runner.report_for_paths, TOOL)
read_sources = runner.read_sources
