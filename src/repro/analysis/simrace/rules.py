"""simrace rule catalogue (SR001–SR004).

Each rule consumes the :class:`~repro.analysis.simrace.model.ModuleModel`
and the per-process :class:`~repro.analysis.simrace.model.ProcessTrace`
objects built by the engine, and yields
:class:`~repro.analysis.findings.Violation` records.

* **SR001** — a shared-attribute read-modify-write straddles a yield
  point without a lock held continuously from the read to the write.
* **SR002** — a lock/semaphore slot acquired by a process may still be
  held on some path when the process generator exits.
* **SR003** — two processes acquire the same pair of locks in opposite
  orders (static deadlock potential).
* **SR004** — a write to an object captured by multiple spawned
  processes happens with an empty lockset.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Violation
from repro.analysis.runner import Rule
from repro.analysis.simrace.model import (
    MAX_INLINE_DEPTH,
    Access,
    FuncInfo,
    LockRef,
    ModuleModel,
    ProcessTrace,
    _ACQUIRE_KIND,
    _RELEASE_KIND,
    call_name,
    canonical_text,
)


class AnalysisContext:
    """Bundle handed to every rule: the model, the traces, and the file."""

    def __init__(self, model: ModuleModel, traces: List[ProcessTrace], path: str) -> None:
        self.model = model
        self.traces = traces
        self.path = path


class RmwAcrossYieldRule(Rule):
    """SR001: read-modify-write of shared state straddling a yield point."""

    code = "SR001"
    title = "read-modify-write straddles a yield without a held lock"
    explanation = (
        "A DES process read a shared attribute, yielded (Delay/Acquire), and "
        "wrote it back without holding a lock across both accesses; another "
        "process can interleave at the yield and the update is lost."
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Violation]:
        for trace in ctx.traces:
            last_read: Dict[str, Access] = {}
            for access in trace.accesses:
                if access.op == "r":
                    if access.shared:
                        last_read[access.key] = access
                    continue
                previous = last_read.pop(access.key, None)
                if not access.shared or previous is None:
                    continue
                if previous.yield_epoch >= access.yield_epoch:
                    continue
                if _held_across(previous, access):
                    continue
                yields = access.yield_epoch - previous.yield_epoch
                yield self.violation(
                    ctx,
                    access.node,
                    f"read-modify-write of {access.key!r} in process "
                    f"{trace.func.name!r} straddles {yields} yield point(s) "
                    f"(read at line {previous.node.lineno}) with no lock held "
                    f"across both accesses; the update can be lost",
                )


def _held_across(read: Access, write: Access) -> bool:
    for ref, epoch in read.lockset.items():
        if write.lockset.get(ref) == epoch:
            return True
    return False


#: Path-state caps for the SR002 walker.
_MAX_STATES = 128
_MAX_ASSUMPTIONS = 6

# One path state: (locks held, assumed condition outcomes).
_State = Tuple[FrozenSet[LockRef], FrozenSet[Tuple[str, bool]]]


class LockLeakRule(Rule):
    """SR002: Acquire without a matching Release on some call-graph path."""

    code = "SR002"
    title = "lock may still be held when the process exits"
    explanation = (
        "Some path through the process generator (and its yield-from "
        "helpers) reaches the end while still holding a Lock or Semaphore "
        "slot; later waiters deadlock.  Paths ending in `raise` are exempt."
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Violation]:
        for func in ctx.model.root_process_generators():
            binding = ctx.model.bindings_for(func)[0]
            walker = _LeakWalker(ctx.model)
            exits = walker.run(func, binding.env)
            leaked: Dict[LockRef, int] = {}
            for locks, _assume in exits:
                for ref in locks:
                    leaked[ref] = leaked.get(ref, 0) + 1
            for ref in sorted(leaked, key=lambda r: (r.kind, r.key)):
                node = walker.acquire_nodes.get(ref)
                if node is None:
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"{ref.describe()} acquired here may still be held when "
                    f"process {func.name!r} exits on some path; release it on "
                    f"every non-raising path",
                )


class _LeakWalker:
    """Path-forking lockset walker with syntactic condition correlation.

    Tracks a set of (lockset, assumptions) states.  For a side-effect-free
    ``if`` condition the branch outcome is recorded as an assumption, so a
    later ``if`` with the *same* condition text only continues the
    consistent states — the common ``if flag: Acquire ... if flag:
    Release`` pattern does not false-positive.
    """

    def __init__(self, model: ModuleModel) -> None:
        self.model = model
        self.acquire_nodes: Dict[LockRef, ast.AST] = {}
        self._returned: Set[_State] = set()

    def run(self, func: FuncInfo, env: Dict[str, str]) -> Set[_State]:
        start: Set[_State] = {(frozenset(), frozenset())}
        self._returned = set()
        fallthrough = self._walk_func(func, env, start, depth=0, stack=frozenset({id(func)}))
        return fallthrough | self._returned

    def _walk_func(
        self,
        func: FuncInfo,
        env: Dict[str, str],
        states: Set[_State],
        depth: int,
        stack: FrozenSet[int],
    ) -> Set[_State]:
        outer_returns = self._returned
        self._returned = set()
        out = self._walk_block(func.node.body, states, func, env, depth, stack)  # type: ignore[attr-defined]
        out |= self._returned
        self._returned = outer_returns
        return out

    def _walk_block(
        self,
        stmts: List[ast.stmt],
        states: Set[_State],
        func: FuncInfo,
        env: Dict[str, str],
        depth: int,
        stack: FrozenSet[int],
    ) -> Set[_State]:
        for stmt in stmts:
            if not states:
                break
            states = self._walk_stmt(stmt, states, func, env, depth, stack)
        return states

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        states: Set[_State],
        func: FuncInfo,
        env: Dict[str, str],
        depth: int,
        stack: FrozenSet[int],
    ) -> Set[_State]:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            return self._apply_yield(stmt.value, states, env)
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.YieldFrom):
            value = stmt.value.value
            if isinstance(value, ast.Call):
                callee = self.model.resolve_call(func, value)
                if (
                    callee is not None
                    and callee.is_process
                    and depth < MAX_INLINE_DEPTH
                    and id(callee) not in stack
                ):
                    inner_env = _bind_env(callee, value, env)
                    return self._walk_func(
                        callee, inner_env, states, depth + 1, stack | {id(callee)}
                    )
            return states
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, states, func, env, depth, stack)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            once = self._walk_block(stmt.body, states, func, env, depth, stack)
            merged = _cap(states | once)
            return self._walk_block(stmt.orelse, merged, func, env, depth, stack)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_block(stmt.body, states, func, env, depth, stack)
        if isinstance(stmt, ast.Try):
            after_body = self._walk_block(stmt.body, states, func, env, depth, stack)
            out = self._walk_block(stmt.orelse, after_body, func, env, depth, stack)
            for handler in stmt.handlers:
                out |= self._walk_block(handler.body, set(states), func, env, depth, stack)
            return self._walk_block(stmt.finalbody, _cap(out), func, env, depth, stack)
        if isinstance(stmt, ast.Return):
            self._returned |= states
            return set()
        if isinstance(stmt, ast.Raise):
            # A raising path propagates the error; the scheduler (not this
            # process) is responsible for cleanup — exempt, like SL006.
            return set()
        return states

    def _walk_if(
        self,
        stmt: ast.If,
        states: Set[_State],
        func: FuncInfo,
        env: Dict[str, str],
        depth: int,
        stack: FrozenSet[int],
    ) -> Set[_State]:
        condition = _condition_text(stmt.test)
        body_in: Set[_State] = set()
        else_in: Set[_State] = set()
        for locks, assume in states:
            if condition is None:
                body_in.add((locks, assume))
                else_in.add((locks, assume))
                continue
            if (condition, False) not in assume:
                body_in.add((locks, _assume(assume, condition, True)))
            if (condition, True) not in assume:
                else_in.add((locks, _assume(assume, condition, False)))
        body_out = self._walk_block(stmt.body, body_in, func, env, depth, stack)
        else_out = self._walk_block(stmt.orelse, else_in, func, env, depth, stack)
        return _cap(body_out | else_out)

    def _apply_yield(
        self, node: ast.Yield, states: Set[_State], env: Dict[str, str]
    ) -> Set[_State]:
        value = node.value
        if not isinstance(value, ast.Call):
            return states
        name = call_name(value.func)
        if name in _ACQUIRE_KIND:
            ref = _yield_lock_ref(_ACQUIRE_KIND[name], value, env)
            self.acquire_nodes.setdefault(ref, node)
            return _cap({(locks | {ref}, assume) for locks, assume in states})
        if name in _RELEASE_KIND:
            ref = _yield_lock_ref(_RELEASE_KIND[name], value, env)
            return _cap({(locks - {ref}, assume) for locks, assume in states})
        return states


def _yield_lock_ref(kind: str, call: ast.Call, env: Dict[str, str]) -> LockRef:
    if call.args:
        text = canonical_text(call.args[0], env)
        if text is None:
            text = ast.unparse(call.args[0])
    else:
        text = "<missing>"
    return LockRef(kind, text)


def _bind_env(callee: FuncInfo, call: ast.Call, env: Dict[str, str]) -> Dict[str, str]:
    params = callee.param_names()
    inner: Dict[str, str] = {}
    offset = 0
    if params and params[0] == "self" and isinstance(call.func, ast.Attribute):
        inner["self"] = env.get("self", "self")
        offset = 1
    for index, arg in enumerate(call.args):
        if offset + index >= len(params):
            break
        text = canonical_text(arg, env)
        if text is not None:
            inner[params[offset + index]] = text
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in params:
            text = canonical_text(keyword.value, env)
            if text is not None:
                inner[keyword.arg] = text
    return inner


def _condition_text(test: ast.expr) -> Optional[str]:
    """Source text of a side-effect-free condition, else None."""
    for node in ast.walk(test):
        if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
            return None
    return ast.unparse(test)


def _assume(
    assume: FrozenSet[Tuple[str, bool]], condition: str, value: bool
) -> FrozenSet[Tuple[str, bool]]:
    if len(assume) >= _MAX_ASSUMPTIONS:
        return assume
    return assume | {(condition, value)}


def _cap(states: Set[_State]) -> Set[_State]:
    if len(states) <= _MAX_STATES:
        return states
    # Deterministic truncation; dropping states under-approximates paths
    # (may miss a leak) but never invents one.
    ordered = sorted(states, key=lambda s: (sorted(r.key for r in s[0]), sorted(s[1])))
    return set(ordered[:_MAX_STATES])


class LockOrderRule(Rule):
    """SR003: opposite lock-acquisition orders across processes."""

    code = "SR003"
    title = "inconsistent lock acquisition order between processes"
    explanation = (
        "One process acquires lock A then B while another (or another "
        "instance of the same generator) acquires B then A; with both "
        "running concurrently each can hold one lock and wait forever on "
        "the other."
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Violation]:
        pairs: Dict[Tuple[LockRef, LockRef], Tuple[ProcessTrace, ast.AST]] = {}
        for trace in ctx.traces:
            for pair, node in trace.order_pairs.items():
                pairs.setdefault(pair, (trace, node))
        reported: Set[FrozenSet[LockRef]] = set()
        for (first, second), (trace, node) in sorted(
            pairs.items(), key=lambda item: (item[1][1].lineno, item[0][0].key, item[0][1].key)
        ):
            if first == second:
                continue
            unordered = frozenset((first, second))
            if unordered in reported:
                continue
            reverse = pairs.get((second, first))
            if reverse is None:
                continue
            reported.add(unordered)
            other_trace, other_node = reverse
            yield self.violation(
                ctx,
                node,
                f"process {trace.func.name!r} acquires {first.describe()} then "
                f"{second.describe()} here, but process {other_trace.func.name!r} "
                f"acquires them in the opposite order at line "
                f"{other_node.lineno}; concurrent instances can deadlock",
            )


class UnlockedSharedWriteRule(Rule):
    """SR004: unlocked write to an object captured by multiple processes."""

    code = "SR004"
    title = "unlocked write to an object shared by multiple spawned processes"
    explanation = (
        "The process generator is spawned more than once (in a loop or at "
        "several sites) and writes, directly in its own body, to an object "
        "every instance captures — with no lock held.  Writes that happen "
        "inside plain (non-yielding) helper calls are single-slice and "
        "therefore exempt."
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Violation]:
        sites_by_gen: Dict[int, List] = {}
        for site in ctx.model.spawns:
            sites_by_gen.setdefault(id(site.generator), []).append(site)
        for trace in ctx.traces:
            site = trace.binding.site
            if site is None:
                continue
            sites = sites_by_gen.get(id(trace.func), [])
            multiply_spawned = len(sites) >= 2 or any(s.in_loop for s in sites)
            if not multiply_spawned:
                continue
            seen: Set[Tuple[int, str]] = set()
            for access in trace.accesses:
                if access.op != "w" or access.via_call or not access.shared:
                    continue
                if access.lockset:
                    continue
                if access.root in site.loop_target_roots:
                    # Bound to the spawn loop's iteration variable: each
                    # instance gets its own object.
                    continue
                line = getattr(access.node, "lineno", 1)
                if (line, access.key) in seen:
                    continue
                seen.add((line, access.key))
                yield self.violation(
                    ctx,
                    access.node,
                    f"write to {access.key!r} with an empty lockset in process "
                    f"{trace.func.name!r}, which is spawned multiple times and "
                    f"captures the same object in every instance; concurrent "
                    f"writes race",
                )


RULES: List[Rule] = [
    RmwAcrossYieldRule(),
    LockLeakRule(),
    LockOrderRule(),
    UnlockedSharedWriteRule(),
]
