"""simeffect: interprocedural effect & kernel-eligibility analysis.

The fourth member of the repo's analysis family.  simlint checks
token-level simulation hygiene, simrace checks cross-yield atomicity,
simflow tracks address-domain flow; simeffect reasons *interprocedurally*
— over the whole-program call graph it infers a per-function effect
summary from a small lattice (PURE, READS_CLOCK, ADVANCES_CLOCK, YIELDS,
RNG, MUTATES_STATS, MUTATES_STATE, PERSISTS, FAULT_HOOK) and checks it
against the declared contracts of :mod:`repro.effects` (SE001–SE006).

Its product is the kernel-eligibility report (``--report`` →
``EFFECTS.json``): every annotated hot-path function, certified
batch-compilable or with the concrete transitive effect (witness chain)
or unresolved call that disqualifies it.
"""

from functools import partial
from typing import Dict, List

from repro.effects import KERNEL_SAFE_EFFECTS
from repro.analysis import runner
from repro.analysis.runner import Report, Tool, collect, infer_sim_scope
from repro.analysis.simeffect.model import Program, SPEC_SEEDS, chain_str, short_name
from repro.analysis.simeffect.rules import RULES
from repro.analysis.simeffect.scan import (
    kernel_scope,
    transitive_unresolved,
    witness_chain,
)


def build_report(program: Program) -> Dict[str, object]:
    """The machine-readable kernel-eligibility report for EFFECTS.json."""
    scope = kernel_scope(program)
    entries: List[Dict[str, object]] = []
    for function in sorted(program.functions.values(), key=lambda f: f.qualname):
        if not function.annotated:
            continue
        effects = sorted(function.effects)
        disqualifiers: List[Dict[str, object]] = []
        for effect in sorted(set(effects) - KERNEL_SAFE_EFFECTS):
            chain = witness_chain(program, function.qualname, effect)
            disqualifiers.append(
                {
                    "effect": effect,
                    "chain": chain_str(chain),
                }
            )
        unresolved = transitive_unresolved(program, function.qualname)
        for holder, line, reason in unresolved:
            disqualifiers.append(
                {
                    "unresolved_call": reason,
                    "function": short_name(holder),
                    "line": line,
                }
            )
        eligible = not disqualifiers
        contract = "kernel" if function.kernel is not None else "effects"
        entry: Dict[str, object] = {
            "function": short_name(function.qualname),
            "module": function.module,
            "file": program.paths[function.module],
            "line": function.lineno,
            "contract": contract,
            "effects": effects,
            "raises": sorted(exc.split(".")[-1] for exc in function.raises),
            "kernel_eligible": eligible,
            "certified_kernel": eligible and function.kernel is not None,
        }
        if function.kernel is not None:
            entry["allow"] = sorted(function.kernel["allow"])
            entry["may_raise"] = sorted(function.kernel["may_raise"])
        if function.declared_effects is not None:
            entry["declared_effects"] = sorted(function.declared_effects)
        if disqualifiers:
            entry["disqualifiers"] = disqualifiers
        entries.append(entry)

    certified = [e["function"] for e in entries if e["certified_kernel"]]
    eligible_only = [
        e["function"] for e in entries if e["kernel_eligible"] and not e["certified_kernel"]
    ]
    return {
        "tool": "simeffect",
        "schema_version": 1,
        "kernel_safe_effects": sorted(KERNEL_SAFE_EFFECTS),
        "seeded_primitives": sorted(SPEC_SEEDS),
        "summary": {
            "annotated": len(entries),
            "certified_kernels": len(certified),
            "eligible_not_declared": len(eligible_only),
            "disqualified": len(entries) - len(certified) - len(eligible_only),
            "kernel_scope_functions": len(scope),
        },
        "certified": sorted(certified),
        "functions": entries,
    }


TOOL = Tool(
    name="simeffect",
    check=partial(collect, RULES),
    prefix="SE",
    rules=RULES,
    scope=infer_sim_scope,
    whole_program=True,
    report=Report(
        "EFFECTS.json",
        build_report,
        "{certified_kernels} certified kernel(s), {disqualified} disqualified, "
        "{annotated} annotated function(s)",
    ),
    description=(
        "Interprocedural effect & kernel-eligibility analysis for the "
        "FlatFlash simulator."
    ),
    help={
        "select": "comma-separated rule codes to run (default: all), e.g. SE001,SE005",
        "report": (
            "write the kernel-eligibility report to FILE "
            "(default EFFECTS.json) in addition to reporting findings"
        ),
    },
)

analyze_sources = partial(runner.check_sources, TOOL)
analyze_paths = partial(runner.check_paths, TOOL)
report_for_paths = partial(runner.report_for_paths, TOOL)
