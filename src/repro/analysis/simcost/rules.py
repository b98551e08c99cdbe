"""SC rule catalogue: checks over the solved per-path cost summaries.

SC001–SC003 are *accounting events* detected during path evaluation
(``paths.py``) and reported at the offending call site; SC004–SC006 are
whole-program checks over the solved summaries and the ``@counters``
contracts (:mod:`repro.costs`).  SC007 (dead config knob) only runs
under ``--check-config`` — it audits tuning surface, not accounting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.costs import Invariant
from repro.analysis.runner import ProgramRule, ReportFn
from repro.analysis.simeffect.model import FunctionInfo, Program, short_name
from repro.analysis.simcost.model import CostModel
from repro.analysis.simcost.paths import (
    Evaluator,
    Interval,
    Path,
    ZERO,
    iv_add,
    iv_exact,
)


@dataclass
class Analysis:
    """Everything the rules need: program + cost model + solved summaries."""

    program: Program
    model: CostModel
    evaluator: Evaluator


def _def_site(analysis: Analysis, fn: FunctionInfo) -> Tuple[str, int]:
    return analysis.program.paths[fn.module], fn.lineno


class _EventRule(ProgramRule):
    """SC001–SC003 replay accounting events recorded during evaluation."""

    def check(self, analysis: Analysis, report: ReportFn) -> None:
        for qualname in sorted(analysis.evaluator.summaries):
            summary = analysis.evaluator.summaries[qualname]
            fn = analysis.program.functions.get(qualname)
            if fn is None:
                continue
            path = analysis.program.paths[fn.module]
            for code, line, message in sorted(summary.events):
                if code == self.code:
                    report(code, path, line, 0, message)


class UnchargedTimedPath(_EventRule):
    code = "SC001"
    title = "TimeNs result discarded without being charged"
    explanation = (
        "A statement discards the TimeNs return value of a call whose "
        "callee neither advances the sim clock nor books the cost to a "
        "*background_ns counter.  The simulated work happened but its "
        "latency evaporated — the scorecard silently under-reports."
    )


class DoubleCharge(_EventRule):
    code = "SC002"
    title = "same cost value charged to the clock twice on one path"
    explanation = (
        "A TimeNs value that was already charged (via clock.advance, a "
        "charging callee, or a *background_ns counter) is advanced again "
        "on the same control-flow path.  The charge provenance is tracked "
        "through sums and callee returns, so two *independent* reads of "
        "the same LatencyConfig field do not trip this rule."
    )


class MagicNumberTime(_EventRule):
    code = "SC003"
    title = "clock.advance with a magic-number delta"
    explanation = (
        "clock.advance is called with a bare numeric literal.  All charged "
        "time must be traceable to a LatencyConfig field (the Table-2 cost "
        "constants) or a TimeNs expression derived from one, or the "
        "vectorized engine cannot reproduce the charge."
    )


# --------------------------------------------------------------------------
# SC004: counter conservation
# --------------------------------------------------------------------------


@dataclass
class InvariantResult:
    """Outcome of checking one declared invariant (shared with --report)."""

    class_qualname: str
    owner: str
    invariant: Invariant
    status: str  # "verified" | "violated" | "unchecked"
    detail: str = ""
    site: Tuple[str, int] = ("", 0)
    violations: List[str] = field(default_factory=list)


def _sum_terms(terms, counters: Dict[str, Interval]) -> Interval:
    total: Interval = ZERO
    for kind, value in terms:
        if kind == "const":
            total = iv_add(total, (value, value))
        else:
            total = iv_add(total, counters.get(value, ZERO))
    return total


def _path_holds(invariant: Invariant, path: Path) -> Optional[bool]:
    """True/False if decidable on this path, None if imprecise.

    Decidability is judged on the interval sums of the legs the
    invariant actually names, not on the path's global imprecision
    flag — a loop elsewhere in the function must not make a directly
    bumped counter unverifiable.
    """
    lhs = _sum_terms(invariant.lhs, path.counters)
    rhs = _sum_terms(invariant.rhs, path.counters)
    if invariant.op == "==":
        if iv_exact(lhs) and iv_exact(rhs):
            return lhs[0] == rhs[0]
        return None
    if invariant.op == "<=":
        low, high = lhs, rhs
    else:  # ">=" mirrors "<="
        low, high = rhs, lhs
    if low[1] is not None and low[1] <= high[0]:
        return True  # even the largest LHS fits under the smallest RHS
    if high[1] is not None and low[0] > high[1]:
        return False
    return None


def _known_stat_legs(model: CostModel) -> Set[str]:
    legs: Set[str] = set()
    for binding in model.stat_attrs.values():
        if binding.kind == "counter":
            legs.add(binding.name)
        elif binding.kind == "ratio":
            for leg in ("total", "hit", "miss"):
                legs.add(f"{binding.name}:{leg}")
        else:
            legs.add(f"{binding.name}:samples")
    return legs


def _conds_str(path: Path) -> str:
    return " and ".join(path.conds) if path.conds else "<always>"


def check_invariants(analysis: Analysis) -> List[InvariantResult]:
    """Evaluate every declared @counters invariant; shared with --report."""
    results: List[InvariantResult] = []
    known_legs = _known_stat_legs(analysis.model)
    for class_qualname in sorted(analysis.model.contracts):
        contract = analysis.model.contracts[class_qualname]
        cls = analysis.program.classes.get(class_qualname)
        if cls is None:
            continue
        cls_path = analysis.program.paths[cls.module]
        for invariant in contract.invariants:
            unknown = [leg for leg in invariant.legs() if leg not in known_legs]
            if unknown:
                results.append(InvariantResult(
                    class_qualname, contract.owner, invariant, "unchecked",
                    f"unknown stat leg {unknown[0]!r}",
                    (cls_path, contract.lineno),
                ))
                continue
            if invariant.scope is not None:
                fn = analysis.program.find_method(class_qualname, invariant.scope)
                if fn is None:
                    results.append(InvariantResult(
                        class_qualname, contract.owner, invariant, "unchecked",
                        f"scopes unknown method {invariant.scope!r}",
                        (cls_path, contract.lineno),
                    ))
                    continue
                methods = [fn]
                site = (analysis.program.paths[fn.module], fn.lineno)
            else:
                methods = sorted(
                    cls.methods.values(), key=lambda f: f.qualname
                )
                site = (cls_path, contract.lineno)
            checked = 0
            violations: List[str] = []
            for fn in methods:
                summary = analysis.evaluator.summaries.get(fn.qualname)
                if summary is None:
                    continue
                for path in summary.paths:
                    if invariant.scope is not None and path.raises is not None:
                        continue  # scoped invariants cover completed calls
                    holds = _path_holds(invariant, path)
                    if holds is None:
                        continue
                    checked += 1
                    if not holds:
                        violations.append(
                            f"{short_name(fn.qualname)} on path "
                            f"[{_conds_str(path)}]"
                        )
            if violations:
                status, detail = "violated", violations[0]
            elif checked:
                status, detail = "verified", f"{checked} path(s)"
            else:
                status, detail = "unchecked", "no precise path to check"
            results.append(InvariantResult(
                class_qualname, contract.owner, invariant, status, detail,
                site, violations,
            ))
    return results


class ConservationViolated(ProgramRule):
    code = "SC004"
    title = "counter-conservation invariant violated"
    explanation = (
        "A @counters(conserve=...) invariant fails on at least one precise "
        "control-flow path: per-path stat deltas do not satisfy the "
        "declared equation (e.g. PLB hits + misses == lookups).  Also "
        "fires on malformed contracts and invariants naming unknown stats."
    )

    def check(self, analysis: Analysis, report: ReportFn) -> None:
        for class_qualname in sorted(analysis.model.contracts):
            contract = analysis.model.contracts[class_qualname]
            cls = analysis.program.classes.get(class_qualname)
            if cls is None:
                continue
            path = analysis.program.paths[cls.module]
            for line, message in contract.errors:
                report(
                    self.code, path, line, 0,
                    f"invalid @counters contract on {cls.name}: {message}",
                )
        for result in check_invariants(analysis):
            if result.status == "violated":
                report(
                    self.code, result.site[0], result.site[1], 0,
                    f"invariant {result.invariant.raw!r} violated: "
                    f"{result.detail}",
                )
            elif result.status == "unchecked" and (
                "unknown" in result.detail
            ):
                report(
                    self.code, result.site[0], result.site[1], 0,
                    f"invariant {result.invariant.raw!r} is unverifiable: "
                    f"{result.detail}",
                )


class ForeignStatMutation(ProgramRule):
    code = "SC005"
    title = "stat mutated outside its owning component"
    explanation = (
        "A stat whose name prefix is owned by a @counters component is "
        "mutated from a class that does not declare that ownership.  "
        "Scattered mutation sites make the conservation invariants — and "
        "the vectorized replay — unauditable."
    )

    def check(self, analysis: Analysis, report: ReportFn) -> None:
        model = analysis.model
        program = analysis.program
        for qualname in sorted(analysis.evaluator.summaries):
            summary = analysis.evaluator.summaries[qualname]
            if not summary.stat_muts:
                continue
            fn = program.functions.get(qualname)
            if fn is None:
                continue
            declared: Set[str] = set()
            if fn.cls is not None:
                for ancestor in program.mro_of(fn.cls) or [fn.cls]:
                    contract = model.contracts.get(ancestor)
                    if contract is not None and contract.owner:
                        declared.add(contract.owner)
            path = program.paths[fn.module]
            for line, stat_name in sorted(summary.stat_muts):
                prefix = stat_name.split(".", 1)[0]
                owner_classes = model.owners.get(prefix)
                if not owner_classes or prefix in declared:
                    continue
                owners = ", ".join(
                    sorted(short_name(name) for name in owner_classes)
                )
                report(
                    self.code, path, line, 0,
                    f"stat '{stat_name}' (prefix '{prefix}', owned by "
                    f"{owners}) is mutated by {short_name(qualname)}, which "
                    f"does not declare @counters(owner='{prefix}')",
                )


def _load_attr_names(program: Program, skip_module: str = "") -> Set[str]:
    """Every attribute name read (Load context) outside ``skip_module``."""
    used: Set[str] = set()
    for module in program.modules.values():
        if module.name == skip_module:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                used.add(node.attr)
    return used


class DeadCostConstant(ProgramRule):
    code = "SC006"
    title = "LatencyConfig field never charged anywhere"
    explanation = (
        "A cost constant is declared in LatencyConfig but never read "
        "outside the config module: either a hot path forgot to charge it "
        "(a missing Table-2 cost) or the knob is dead and must go."
    )
    sim_scope_only = False  # findings land in config.py, outside sim scope

    def check(self, analysis: Analysis, report: ReportFn) -> None:
        model = analysis.model
        if not model.latency_fields:
            return
        config_module = ""
        for module in analysis.program.modules.values():
            if analysis.program.paths[module.name] == model.latency_config_path:
                config_module = module.name
        used = _load_attr_names(analysis.program, skip_module=config_module)
        for name in sorted(model.latency_fields):
            if name not in used:
                report(
                    self.code, model.latency_config_path,
                    model.latency_fields[name], 0,
                    f"LatencyConfig.{name} is never charged or read outside "
                    f"the config module (dead cost constant)",
                )


RULES: Tuple[ProgramRule, ...] = (
    UnchargedTimedPath(),
    DoubleCharge(),
    MagicNumberTime(),
    ConservationViolated(),
    ForeignStatMutation(),
    DeadCostConstant(),
)


#: --check-config pass (dead-knob audit).  Kept out of RULES so the
#: default lint run stays focused on accounting; SC007 findings land in
#: config.py and are reviewed explicitly.
CONFIG_RULE_CODE = "SC007"


class DeadConfigKnob(ProgramRule):
    """SC007: FlatFlashConfig/GeometryConfig/PromotionConfig field never read.

    Unlike SC006 (a cost constant must be *charged*, i.e. read from a hot
    path outside the config module), a structural knob counts as live if
    it is read anywhere at all — including derived accessors inside the
    config module, the common pattern for ratio/override pairs.
    """

    code = CONFIG_RULE_CODE
    title = "dead config knob"
    sim_scope_only = False
    explanation = (
        "FlatFlashConfig/GeometryConfig/PromotionConfig field never read "
        "outside its config module."
    )

    def check(self, analysis: Analysis, report: ReportFn) -> None:
        model = analysis.model
        if not model.config_fields:
            return
        used = _load_attr_names(analysis.program)
        for name in sorted(model.config_fields):
            if name not in used:
                class_qualname, path, line = model.config_fields[name]
                cls = class_qualname.rsplit(".", 1)[-1]
                report(
                    CONFIG_RULE_CODE, path, line, 0,
                    f"{cls}.{name} is never read anywhere (dead knob): "
                    f"delete it or document why it stays",
                )


CONFIG_RULE = DeadConfigKnob()
