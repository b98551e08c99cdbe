"""SE rule catalogue: checks over the solved whole-program effect model.

Unlike the simlint/simrace/simflow rules, which fire per file, every SE
rule reads the *solved* program — effect summaries after the call-graph
fixpoint — so a finding on one line can be caused by a callee three
modules away.  Messages therefore carry the witness chain
(``caller -> callee -> ... -> primitive``) so the report is actionable
without re-running the analysis by hand.

All SE rules are sim-scope-only: the batch-compilation gate applies to
the simulator layers, not to experiment scripts.
"""

from __future__ import annotations

from typing import Tuple

from repro.effects import KERNEL_SAFE_EFFECTS
from repro.analysis.runner import ProgramRule, ReportFn
from repro.analysis.simeffect.model import FunctionInfo, Program, chain_str, short_name
from repro.analysis.simeffect.scan import (
    kernel_scope,
    raise_chain,
    witness_chain,
)

#: Effects whose presence makes holding a lock meaningful (SE006): the
#: lock protects shared mutable state, durability, time, or an RNG stream.
LOCK_MEANINGFUL_EFFECTS = frozenset(
    {"MUTATES_STATE", "MUTATES_STATS", "PERSISTS", "ADVANCES_CLOCK", "RNG"}
)


def _def_site(program: Program, function: FunctionInfo) -> Tuple[str, int]:
    return program.paths[function.module], function.lineno


class KernelContractViolated(ProgramRule):
    code = "SE001"
    title = "@kernel function has a non-kernel-safe transitive effect"
    explanation = (
        "A function declared @kernel may only mutate model state and stats "
        "(the vectorizable effects) plus anything in its allow= list; other "
        "transitive effects — clock, DES yields, RNG, flash programs, fault "
        "hooks — couple it to the event loop and forbid batch compilation."
    )

    def check(self, program: Program, report: ReportFn) -> None:
        for function in sorted(program.functions.values(), key=lambda f: f.qualname):
            if function.kernel is None or function.seeded:
                continue
            allowed = KERNEL_SAFE_EFFECTS | set(function.kernel["allow"])
            for effect in sorted(function.effects - allowed):
                path, line = _def_site(program, function)
                chain = witness_chain(program, function.qualname, effect)
                report(
                    self.code, path, line, 0,
                    f"@kernel function {short_name(function.qualname)} has effect "
                    f"{effect} (via {chain_str(chain)})",
                )


class DeclaredEffectsExceeded(ProgramRule):
    code = "SE002"
    title = "inferred effects exceed the @effects declaration"
    explanation = (
        "An @effects(...) annotation is a ceiling: the implementation must "
        "not silently grow effects beyond what it declares, or the "
        "kernel-eligibility report stops being trustworthy."
    )

    def check(self, program: Program, report: ReportFn) -> None:
        for function in sorted(program.functions.values(), key=lambda f: f.qualname):
            if function.declared_effects is None or function.seeded:
                continue
            for effect in sorted(function.effects - function.declared_effects):
                path, line = _def_site(program, function)
                chain = witness_chain(program, function.qualname, effect)
                report(
                    self.code, path, line, 0,
                    f"{short_name(function.qualname)} has undeclared effect {effect} "
                    f"(via {chain_str(chain)}); add it to @effects or remove "
                    f"the cause",
                )


class UnresolvedDispatchInKernel(ProgramRule):
    code = "SE003"
    title = "unresolvable dynamic dispatch inside kernel scope"
    explanation = (
        "Batch compilation needs the full call graph of a kernel: a call "
        "the analysis cannot resolve (untyped receiver, hook through a "
        "callable value) hides arbitrary effects."
    )

    def check(self, program: Program, report: ReportFn) -> None:
        scope = kernel_scope(program)
        for qualname in sorted(scope):
            function = program.functions[qualname]
            path = program.paths[function.module]
            for line, reason in sorted(function.unresolved):
                report(
                    self.code, path, line, 0,
                    f"unresolved call in kernel scope of "
                    f"{short_name(scope[qualname])}: {reason}",
                )


class AllocationInKernel(ProgramRule):
    code = "SE004"
    title = "per-access container allocation inside kernel scope"
    explanation = (
        "A fresh list/dict/set per access defeats the point of batching "
        "the hot walk; kernels must work in pre-allocated state.  "
        "Exception-path formatting is exempt."
    )

    def check(self, program: Program, report: ReportFn) -> None:
        scope = kernel_scope(program)
        for qualname in sorted(scope):
            function = program.functions[qualname]
            path = program.paths[function.module]
            for line, desc in sorted(function.allocs):
                report(
                    self.code, path, line, 0,
                    f"container allocation ({desc}) in kernel scope of "
                    f"{short_name(scope[qualname])}",
                )


class UndeclaredKernelRaise(ProgramRule):
    code = "SE005"
    title = "exception escapes a @kernel function without a may_raise entry"
    explanation = (
        "Every exception that can escape a kernel is a guard: the batched "
        "kernel must bail out to the interpreter when it fires.  An "
        "undeclared escape means the bailout set is wrong."
    )

    def check(self, program: Program, report: ReportFn) -> None:
        for function in sorted(program.functions.values(), key=lambda f: f.qualname):
            if function.kernel is None or function.seeded:
                continue
            declared = function.kernel["may_raise"]
            for exc in sorted(function.raises):
                if any(program.exc_subsumes(d, exc) for d in declared):
                    continue
                path, line = _def_site(program, function)
                chain = raise_chain(program, function.qualname, exc)
                report(
                    self.code, path, line, 0,
                    f"@kernel function {short_name(function.qualname)} can raise "
                    f"{exc.split('.')[-1]} (via {chain_str(chain)}) but does "
                    f"not declare it in may_raise",
                )


class PointlessLock(ProgramRule):
    code = "SE006"
    title = "effect-free function holds a lock"
    explanation = (
        "Acquiring a DES lock in a function whose transitive effects touch "
        "no shared state (no mutation, persistence, clock advance, or RNG) "
        "serializes the simulation for nothing."
    )

    def check(self, program: Program, report: ReportFn) -> None:
        for function in sorted(program.functions.values(), key=lambda f: f.qualname):
            if not function.acquires_lock or function.seeded:
                continue
            if function.effects & LOCK_MEANINGFUL_EFFECTS:
                continue
            path, line = _def_site(program, function)
            report(
                self.code, path, line, 0,
                f"{short_name(function.qualname)} acquires a lock but has no "
                f"effect a lock could protect (transitive effects: "
                f"{', '.join(sorted(function.effects)) or 'none'})",
            )


RULES: Tuple[ProgramRule, ...] = (
    KernelContractViolated(),
    DeclaredEffectsExceeded(),
    UnresolvedDispatchInKernel(),
    AllocationInKernel(),
    UndeclaredKernelRaise(),
    PointlessLock(),
)

