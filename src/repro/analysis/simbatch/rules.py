"""SB rule catalogue: declared batching contracts vs derived dependences.

SB001–SB006 police *declared* ``@batchable`` regions: the analysis
re-derives every loop-carried dependence and complains when the derived
facts contradict the contract the vectorized engine will rely on.
SB007 (batchable opportunity) only runs under ``--check-opportunities``
— it audits coverage, not correctness: loops the analysis proves
reorder-safe that nobody has declared yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Set, Tuple

from repro.analysis.runner import ProgramRule, ReportFn
from repro.analysis.simeffect.model import (
    FunctionInfo,
    MUTATES_STATS,
    READS_CLOCK,
    RNG,
    chain_str,
    short_name,
)
from repro.analysis.simeffect.scan import transitive_unresolved, witness_chain
from repro.analysis.simbatch.model import (
    EVENT_EFFECTS,
    ORDER_DEPENDENT,
    REDUCTION,
    BatchAnalysis,
    CarriedDep,
    Contract,
    LoopFacts,
)

OPPORTUNITY_RULE_CODE = "SB007"

#: Callee effects that a batchable region tolerates without EFFECTS.json
#: certification: commutative stat bumps and clock *reads* (the clock
#: cannot move inside a batch, so every iteration reads the same value).
_HARMLESS_EFFECTS = {MUTATES_STATS, READS_CLOCK}


@dataclass
class Finding:
    code: str
    fn: FunctionInfo
    line: int
    col: int
    message: str


def _witness(dep: CarriedDep) -> str:
    parts = [f"mutated at line {dep.line}"]
    if dep.read_line is not None:
        parts.append(f"carrying read at line {dep.read_line}")
    if dep.via:
        parts.append(f"via {chain_str(dep.via)}")
    if dep.detail:
        parts.append(dep.detail)
    return "; ".join(parts)


def _declared(contract: Contract, dep: CarriedDep) -> bool:
    return any(
        r.var == dep.name and r.op == dep.op for r in contract.reductions
    )


def region_findings(analysis: BatchAnalysis) -> Iterator[Finding]:
    """SB001–SB006 findings over every declared @batchable region."""
    program = analysis.program
    for qualname in sorted(analysis.contracts):
        contract = analysis.contracts[qualname]
        if not contract.batchable:
            continue
        fn = program.functions[qualname]
        loops = analysis.loops_by_function.get(qualname, [])
        dep_names: Set[str] = set()
        for loop in loops:
            for dep in loop.carried:
                dep_names.add(dep.name)
                yield from _dep_findings(contract, fn, loop, dep)
        yield from _call_findings(analysis, fn)
        # SB006: contract elements the analysis cannot match to the code.
        if not loops:
            yield Finding(
                "SB006", fn, contract.line, 0,
                f"{short_name(qualname)} is declared @batchable but contains no"
                " loop — stale contract",
            )
        for declared in contract.reductions:
            if declared.var not in dep_names:
                yield Finding(
                    "SB006", fn, contract.line, 0,
                    f"{short_name(qualname)} declares @reduction(var="
                    f"'{declared.var}', op='{declared.op}') but '{declared.var}'"
                    " carries no loop dependence — stale contract",
                )


def _dep_findings(contract: Contract, fn: FunctionInfo, loop: LoopFacts,
                  dep: CarriedDep) -> Iterator[Finding]:
    where = f"batchable loop at line {loop.line}"
    if dep.kind == "fold":
        if _declared(contract, dep):
            return
        declared_ops = [r.op for r in contract.reductions if r.var == dep.name]
        if declared_ops:
            yield Finding(
                "SB001", fn, dep.line, 0,
                f"carried variable '{dep.name}' folds through '{dep.op}' but is"
                f" declared @reduction(op='{declared_ops[0]}') — {_witness(dep)}",
            )
        else:
            yield Finding(
                "SB001", fn, dep.line, 0,
                f"undeclared carried dependence through '{dep.name}' in"
                f" {where}; declare @reduction(var='{dep.name}',"
                f" op='{dep.op}') if the fold is intended — {_witness(dep)}",
            )
    elif dep.kind in ("recurrence", "control"):
        yield Finding(
            "SB001", fn, dep.line, 0,
            f"carried dependence through '{dep.name}' in {where} —"
            f" {_witness(dep)}",
        )
    elif dep.kind in ("output", "state"):
        yield Finding(
            "SB002", fn, dep.line, 0,
            f"order-sensitive reduction through '{dep.name}'"
            f" (last-writer-wins) in {where}; the surviving value depends on"
            f" iteration order and cannot be declared — {_witness(dep)}",
        )
    elif dep.kind == "container":
        if dep.op == "append":
            yield Finding(
                "SB002", fn, dep.line, 0,
                f"order-sensitive reduction: '{dep.name}' accumulates by"
                f" append in {where}; element order follows iteration order"
                f" — {_witness(dep)}",
            )
        else:
            yield Finding(
                "SB003", fn, dep.line, 0,
                f"cross-iteration aliasing: mutation of '{dep.name}' in"
                f" {where} is not keyed off the loop variable, so iterations"
                f" can hit the same slot — {_witness(dep)}",
            )
    elif dep.kind == "effect" and dep.name == RNG:
        yield Finding(
            "SB001", fn, dep.line, 0,
            f"carried dependence through the RNG stream in {where} —"
            f" {_witness(dep)}",
        )
    elif dep.kind == "effect" and dep.name in EVENT_EFFECTS and not dep.via:
        # A yield (or other event coupling) written directly in the loop
        # body has no call edge for the SB004 call scan to catch.
        yield Finding(
            "SB004", fn, dep.line, 0,
            f"{dep.name.lower().replace('_', ' ')} directly inside {where}"
            f" — {_witness(dep)}",
        )
    # EVENT_EFFECTS deps reached through callees surface via the region-
    # wide SB004 call scan; "callee"/"unresolved" deps via the SB005 scan.


def _call_findings(analysis: BatchAnalysis, fn: FunctionInfo) -> Iterator[Finding]:
    """SB004/SB005 over every call made inside a declared region."""
    program = analysis.program
    flagged: Set[Tuple[str, int]] = set()
    for edge in fn.calls:
        callee = program.functions.get(edge.callee)
        if callee is None:
            continue
        events = tuple(e for e in EVENT_EFFECTS if e in callee.effects)
        if events:
            key = (edge.callee, edge.line)
            if key not in flagged:
                flagged.add(key)
                chain = chain_str(
                    tuple(witness_chain(program, edge.callee, events[0]))
                )
                yield Finding(
                    "SB004", fn, edge.line, 0,
                    f"{events[0].lower().replace('_', ' ')} inside batchable"
                    f" region {short_name(fn.qualname)}: via {chain}",
                )
            continue
        if edge.callee in analysis.certified or callee.seeded:
            continue
        effects = set(callee.effects) - _HARMLESS_EFFECTS
        unresolved = transitive_unresolved(program, edge.callee)
        if not effects and not unresolved:
            continue  # effect-free, fully resolved helper
        reason = (
            f"effects: {', '.join(sorted(effects))}" if effects
            else "unresolved calls in its body"
        )
        yield Finding(
            "SB005", fn, edge.line, 0,
            f"batchable region {short_name(fn.qualname)} calls"
            f" {short_name(edge.callee)}, which is not certified in EFFECTS.json"
            f" ({reason})",
        )
    for line, description in fn.unresolved:
        yield Finding(
            "SB005", fn, line, 0,
            f"batchable region {short_name(fn.qualname)} makes an unresolved call"
            f" ({description}); it cannot be certified",
        )


class _RegionRule(ProgramRule):
    def check(self, analysis: BatchAnalysis, report: ReportFn) -> None:
        program = analysis.program
        for finding in region_findings(analysis):
            if finding.code == self.code:
                report(
                    finding.code,
                    program.paths[finding.fn.module],
                    finding.line,
                    finding.col,
                    finding.message,
                )


class CarriedDependence(_RegionRule):
    code = "SB001"
    title = "loop-carried dependence inside a declared @batchable loop"
    explanation = (
        "A loop declared batchable carries a value between iterations that "
        "is not a declared commutative reduction: a recurrence, an "
        "undeclared or mismatched fold, a data-dependent trip count, or an "
        "RNG stream.  Batching would replay iterations against the wrong "
        "predecessor state."
    )


class OrderSensitiveReduction(_RegionRule):
    code = "SB002"
    title = "undeclared order-sensitive reduction"
    explanation = (
        "A loop declared batchable folds state through an order-sensitive "
        "operator — a last-writer-wins overwrite or a positional append to "
        "shared storage.  No @reduction declaration can make it legal; the "
        "fold result depends on iteration order."
    )


class CrossIterationAliasing(_RegionRule):
    code = "SB003"
    title = "cross-iteration aliasing via container mutation"
    explanation = (
        "A loop declared batchable mutates a container through a key that "
        "does not vary with the loop variable, so two iterations can land "
        "on the same slot and the surviving value depends on order.  Keyed "
        "scatters (key derived from the loop variable) are fine."
    )


class EventCoupling(_RegionRule):
    code = "SB004"
    title = "yield/clock-advance/fault-hook inside a batchable region"
    explanation = (
        "A declared batchable region reaches SimClock.advance, a DES yield, "
        "or a fault hook.  Those couple each iteration to the global event "
        "order — time would pass in a different order under batching, and "
        "fault points would fire against different state."
    )


class UncertifiedCall(_RegionRule):
    code = "SB005"
    title = "batchable region calls a function not certified in EFFECTS.json"
    explanation = (
        "Every call inside a batchable region must be an EFFECTS.json-"
        "certified kernel, a trusted spec seed, or an effect-free helper.  "
        "Anything else mutates state the reorder proof does not cover."
    )


class StaleContract(_RegionRule):
    code = "SB006"
    title = "stale @batchable/@reduction contract vs analysis"
    explanation = (
        "The declared contract no longer matches the code: a @batchable "
        "function without a loop, or a @reduction variable that carries no "
        "loop dependence.  Stale declarations rot into false confidence."
    )


class BatchableOpportunity(ProgramRule):
    code = OPPORTUNITY_RULE_CODE
    title = "loop provably batchable but not declared"
    explanation = (
        "The loop calls at least one certified kernel and the analysis "
        "proves it VECTORIZABLE or a commutative REDUCTION, but no "
        "@batchable contract covers it — the vectorized engine cannot "
        "batch what is not declared.  Only runs under --check-opportunities."
    )

    def check(self, analysis: BatchAnalysis, report: ReportFn) -> None:
        program = analysis.program
        for loop in analysis.loops:
            contract = analysis.contracts.get(loop.function)
            if contract is not None and contract.batchable:
                continue
            if loop.classification == ORDER_DEPENDENT or not loop.kernel_calls:
                continue
            kernels = ", ".join(short_name(k) for k in loop.kernel_calls)
            shape = loop.classification
            if loop.classification == REDUCTION:
                shape += "(" + ",".join(loop.reduction_ops) + ")"
            report(
                self.code, loop.path, loop.line, loop.col,
                f"loop in {short_name(loop.function)} is provably {shape} and"
                f" calls certified kernel(s) {kernels}; declare @batchable"
                " so the vectorized engine may batch it",
            )


RULES: Tuple[ProgramRule, ...] = (
    CarriedDependence(),
    OrderSensitiveReduction(),
    CrossIterationAliasing(),
    EventCoupling(),
    UncertifiedCall(),
    StaleContract(),
)

OPPORTUNITY_RULE = BatchableOpportunity()

def region_violation_codes(analysis: BatchAnalysis) -> dict:
    """Map of region qualname -> sorted violation codes (for BATCH.json)."""
    out: dict = {}
    for finding in region_findings(analysis):
        out.setdefault(finding.fn.qualname, set()).add(finding.code)
    return {qualname: sorted(codes) for qualname, codes in out.items()}
