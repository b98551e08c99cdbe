"""simcost: static latency-accounting & counter-conservation analysis.

Fifth analyzer in the simlint/simrace/simflow/simeffect family.  It
reuses simeffect's whole-program call-graph model to compute, per
function and per control-flow path, a **cost summary**: the multiset of
:class:`repro.config.LatencyConfig` fields charged (via
``clock.advance`` and transitive callees) and the ``sim/stats.py``
counters/ratios mutated.  Rules SC001–SC006 check the summaries,
``--check-config`` runs the SC007 dead-knob audit instead, and
``--report`` emits ``COSTS.json``, the translation-validation oracle
the vectorized engine is diffed against.
"""

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.analysis import runner
from repro.analysis.runner import Audit, Report, Tool, collect, shared
from repro.analysis.simeffect import build_report as effects_report
from repro.analysis.simeffect.model import Program, short_name
from repro.analysis.simcost.model import build_cost_model
from repro.analysis.simcost.paths import Evaluator, Interval, Path as CostPath
from repro.analysis.simcost.rules import (
    CONFIG_RULE,
    RULES,
    Analysis,
    _load_attr_names,
    check_invariants,
)

#: Hot paths reported in COSTS.json beyond the certified kernels, keyed
#: by report group.  Missing qualnames (e.g. in fixture trees) are
#: skipped, so the report degrades gracefully.
EXTRA_ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "promotion": (
        "repro.core.promotion.PromotionManager.update",
        "repro.core.hierarchy.FlatFlash._start_promotion",
        "repro.core.hierarchy.FlatFlash._promote_stalling",
        "repro.core.hierarchy.FlatFlash._complete_promotion",
    ),
    "fault-retry": (
        "repro.host.bridge.MMIORetryPolicy.backoff_ns",
        "repro.core.hierarchy.FlatFlash._guarded_mmio",
        "repro.ssd.ftl.PageFTL._read_with_ecc",
        "repro.ssd.ftl.PageFTL._program_retrying",
    ),
    "persistence": (
        "repro.core.persistence.PersistentRegion.persist_store",
        "repro.core.persistence.PersistentRegion.commit",
        "repro.core.persistence.PersistentRegion.durable_store",
        "repro.core.persistence.PersistentRegion.atomic_store",
    ),
}


def solve(program: Program) -> Analysis:
    """Build the cost model and path-evaluate every function."""
    model = build_cost_model(program)
    evaluator = Evaluator(program, model)
    evaluator.solve()
    return Analysis(program=program, model=model, evaluator=evaluator)


# --------------------------------------------------------------------------
# Cost report (COSTS.json)
# --------------------------------------------------------------------------


def _iv_json(iv: Interval) -> List[Optional[int]]:
    return [iv[0], iv[1]]


def _effects_json(mapping: Dict[str, Interval]) -> Dict[str, List[Optional[int]]]:
    return {key: _iv_json(iv) for key, iv in sorted(mapping.items())}


def _path_json(path: CostPath) -> Dict[str, object]:
    return {
        "conditions": list(path.conds),
        "charges": _effects_json(path.charges),
        "counters": _effects_json(path.counters),
        "returns": _effects_json(path.returned),
        "raises": path.raises,
        "exact": not path.imprecise,
    }


def build_report(program: Program) -> Dict[str, object]:
    """The machine-readable cost report for COSTS.json."""
    analysis = shared(program, solve)
    model = analysis.model

    groups: List[Tuple[str, str]] = []
    for short in shared(program, effects_report)["certified"]:
        groups.append(("kernel", "repro." + short))
    for group, qualnames in sorted(EXTRA_ENTRY_POINTS.items()):
        for qualname in qualnames:
            groups.append((group, qualname))

    entries: List[Dict[str, object]] = []
    for group, qualname in groups:
        fn = program.functions.get(qualname)
        summary = analysis.evaluator.summaries.get(qualname)
        if fn is None or summary is None:
            continue
        entries.append({
            "function": short_name(qualname),
            "file": program.paths[fn.module],
            "line": fn.lineno,
            "group": group,
            "charges_clock": summary.charges_clock,
            "returns_time": summary.time_spec is not None,
            "charges": _effects_json(summary.charges_joined),
            "counters": _effects_json(summary.counters_joined),
            "returns": _effects_json(summary.returned_atoms),
            "paths": [_path_json(path) for path in summary.paths],
        })
    entries.sort(key=lambda e: (e["group"], e["function"]))

    invariant_results = check_invariants(analysis)
    invariants = [
        {
            "class": short_name(result.class_qualname),
            "owner": result.owner,
            "invariant": result.invariant.raw,
            "scope": result.invariant.scope,
            "status": result.status,
            "detail": result.detail,
        }
        for result in invariant_results
    ]
    invariants.sort(key=lambda i: (i["class"], i["invariant"]))
    status_counts = {"verified": 0, "violated": 0, "unchecked": 0}
    for item in invariants:
        status_counts[item["status"]] += 1

    config_module = ""
    for module in program.modules.values():
        if program.paths[module.name] == model.latency_config_path:
            config_module = module.name
    used = _load_attr_names(program, skip_module=config_module)
    dead_fields = sorted(
        name for name in model.latency_fields if name not in used
    )

    return {
        "tool": "simcost",
        "schema_version": 1,
        "latency_fields": sorted(model.latency_fields),
        "dead_latency_fields": dead_fields,
        "summary": {
            "entry_points": len(entries),
            "kernels": sum(1 for e in entries if e["group"] == "kernel"),
            "invariants_declared": len(invariants),
            "invariants_verified": status_counts["verified"],
            "invariants_violated": status_counts["violated"],
            "invariants_unchecked": status_counts["unchecked"],
        },
        "invariants": invariants,
        "entry_points": entries,
    }


TOOL = Tool(
    name="simcost",
    check=partial(collect, RULES, derive=solve),
    prefix="SC",
    rules=RULES,
    scope=runner.infer_sim_scope,
    whole_program=True,
    report=Report(
        "COSTS.json",
        build_report,
        "{entry_points} entry point(s), "
        "{invariants_verified}/{invariants_declared} invariant(s) verified",
    ),
    audit=Audit(
        "--check-config", CONFIG_RULE, partial(collect, (CONFIG_RULE,), derive=solve)
    ),
    description=(
        "Static latency-accounting & counter-conservation analysis for "
        "the FlatFlash simulator."
    ),
    help={
        "select": "comma-separated rule codes to run (default: all), e.g. SC002,SC004",
        "report": (
            "write the per-entry-point cost report to FILE "
            "(default COSTS.json) in addition to reporting findings"
        ),
        "audit": (
            "run the SC007 dead-knob audit (config fields never read) "
            "instead of the SC accounting rules"
        ),
    },
)

analyze_sources = partial(runner.check_sources, TOOL)
analyze_paths = partial(runner.check_paths, TOOL)
config_violations = partial(runner.check_sources, TOOL, audit=True)
report_for_paths = partial(runner.report_for_paths, TOOL)
read_sources = runner.read_sources
