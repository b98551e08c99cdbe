"""simbatch model: loops, contracts, and loop-carried dependences.

The unit of reasoning is the *loop*.  simeffect answers "what does this
function touch" and simcost answers "what does this path charge"; the
question left open for the ROADMAP-item-1 vectorized engine is "may the
iterations of this loop be batched and reordered".  This module
re-derives the answer from the program text:

* every ``for``/``while`` statement in the hot-path modules is found
  and its loop-carried dependences are classified — scalar folds,
  recurrences, last-writer-wins outputs, container mutations, and
  state carried through callees (resolved against simeffect's call
  graph and effect fixpoint, so a dependence hidden two calls deep
  still surfaces with its ``via`` witness chain);
* the ``@batchable`` / ``@reduction`` contracts from
  :mod:`repro.batch` are parsed syntactically (decorators work even on
  code that is never imported), giving the declared side that the SB
  rules compare against.

A loop is then VECTORIZABLE (no carried dependence), REDUCTION(op)
(carried only through commutative folds), or ORDER_DEPENDENT (anything
else, with a concrete witness: the mutated state, the carrying read,
and the provenance through callees).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.batch import COMMUTATIVE_OPS
from repro.analysis.simeffect.model import (
    ADVANCES_CLOCK,
    BUILTIN_CONTAINER_KINDS,
    CONTAINER_METHOD_TABLES,
    FAULT_HOOK,
    MUTATES_STATE,
    PERSISTS,
    RNG,
    YIELDS,
    FunctionInfo,
    Program,
    TypeContext,
    _bind_target,
    _decorator_name,
    _elem_of,
    _initial_env,
    infer_type,
    short_name,
)
from repro.analysis.simeffect.scan import witness_chain

# Loop classifications.
VECTORIZABLE = "VECTORIZABLE"
REDUCTION = "REDUCTION"
ORDER_DEPENDENT = "ORDER_DEPENDENT"

#: Effects that couple an iteration to the event loop / fault plan —
#: never legal inside a batchable region (SB004).
EVENT_EFFECTS = (ADVANCES_CLOCK, YIELDS, FAULT_HOOK)

#: Recognized fold operators for ``x <op>= e`` / ``x = x <op> e`` /
#: ``x = min(x, e)`` shapes.  ``-`` accumulates like ``+`` (a sum of
#: negated per-iteration terms), so it maps onto the ``+`` fold.
_AUG_OPS = {
    ast.Add: "+",
    ast.Sub: "+",
    ast.Mult: "*",
    ast.BitOr: "|",
    ast.BitAnd: "&",
    ast.BitXor: "^",
}

#: Container mutators whose first argument keys the mutated slot; when
#: the key varies with the loop iteration the writes land on distinct
#: slots (a scatter) and carry nothing.
_KEYED_MUTATORS = {"pop", "remove", "setdefault"}

#: Set mutators that are commutative and idempotent — reorder-safe no
#: matter what they are keyed by.
_COMMUTING_MUTATORS = {"add", "discard"}


@dataclass(frozen=True)
class DeclaredReduction:
    var: str
    op: str


@dataclass
class Contract:
    """Parsed ``@batchable`` / ``@reduction`` decorators of one function."""

    batchable: bool = False
    line: int = 0
    reductions: Tuple[DeclaredReduction, ...] = ()


@dataclass
class CarriedDep:
    """One loop-carried dependence with its witness.

    ``kind`` is one of ``fold`` (recognized accumulator), ``recurrence``
    (carried value read outside its own fold), ``control`` (read by a
    while condition), ``output`` (last-writer-wins value live after the
    loop), ``state`` (attribute store on shared state), ``container``
    (container mutation not keyed by the iteration), ``callee`` (state
    mutated through a called function), ``effect`` (clock/yield/fault/
    RNG coupling through a callee), or ``unresolved`` (call target the
    analysis cannot see).
    """

    name: str
    kind: str
    op: Optional[str]
    line: int
    read_line: Optional[int] = None
    via: Tuple[str, ...] = ()
    detail: str = ""


@dataclass
class LoopFacts:
    """One classified loop."""

    function: str
    path: str
    line: int
    col: int
    end_line: int
    kind: str                      # "for" | "while"
    iterates: str
    carried: List[CarriedDep] = field(default_factory=list)
    calls: List[str] = field(default_factory=list)         # program callees
    kernel_calls: List[str] = field(default_factory=list)  # certified subset
    classification: str = VECTORIZABLE
    reduction_ops: Tuple[str, ...] = ()


@dataclass
class BatchAnalysis:
    """Everything the SB rules and BATCH.json need."""

    program: Program
    certified: Set[str]                     # certified kernel qualnames
    loops: List[LoopFacts] = field(default_factory=list)
    contracts: Dict[str, Contract] = field(default_factory=dict)
    loops_by_function: Dict[str, List[LoopFacts]] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Contract parsing (syntactic, mirrors simeffect's decorator handling)
# --------------------------------------------------------------------------


def _const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def parse_contract(fn: FunctionInfo) -> Optional[Contract]:
    """The ``@batchable``/``@reduction`` contract of ``fn``, if any."""
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    contract = Contract()
    found = False
    for dec in node.decorator_list:
        name = _decorator_name(dec)
        if name == "batchable":
            contract.batchable = True
            contract.line = dec.lineno
            found = True
        elif name == "reduction" and isinstance(dec, ast.Call):
            var = op = None
            args = list(dec.args)
            if args:
                var = _const_str(args[0])
            if len(args) > 1:
                op = _const_str(args[1])
            for kw in dec.keywords:
                if kw.arg == "var":
                    var = _const_str(kw.value)
                elif kw.arg == "op":
                    op = _const_str(kw.value)
            if var is not None and op is not None:
                contract.reductions += (DeclaredReduction(var, op),)
                found = True
    if not found:
        return None
    if not contract.line:
        contract.line = fn.lineno
    return contract


# --------------------------------------------------------------------------
# AST walking helpers (source order, nested defs pruned)
# --------------------------------------------------------------------------

_SKIP_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _stmt_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        body = getattr(stmt, name, None)
        if body:
            yield body
    for handler in getattr(stmt, "handlers", ()) or ():
        yield handler.body


def _walk_stmts(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement under ``body`` in source order, skipping nested defs."""
    for stmt in body:
        if isinstance(stmt, _SKIP_STMTS):
            continue
        yield stmt
        for inner in _stmt_bodies(stmt):
            yield from _walk_stmts(inner)


def collect_loops(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    return [
        stmt for stmt in _walk_stmts(body) if isinstance(stmt, (ast.For, ast.While))
    ]


def _walk_expr(node: ast.expr) -> Iterator[ast.AST]:
    """All nodes of an expression, skipping lambda bodies."""
    for child in ast.walk(node):
        if isinstance(child, ast.Lambda):
            continue
        yield child


def _target_names(target: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _load_names(node: Optional[ast.expr]) -> Set[str]:
    if node is None:
        return set()
    return {
        n.id
        for n in _walk_expr(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _expr_str(node: ast.expr, limit: int = 60) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# --------------------------------------------------------------------------
# Per-loop scan
# --------------------------------------------------------------------------


@dataclass
class _Write:
    line: int
    op: Optional[str]          # recognized fold op, "last", or "iter"
    value_names: Set[str]
    stmt_id: int


@dataclass
class _ContainerEvent:
    line: int
    receiver: ast.expr
    method: str                # method name, or "[]=" / "del[]" for subscripts
    key_names: Optional[Set[str]]   # None when the mutation has no key


class _LoopScan:
    """Name/container events of one loop body, in source order."""

    def __init__(self, loop: ast.stmt):
        self.loop = loop
        self.loop_targets: Set[str] = (
            _target_names(loop.target) if isinstance(loop, ast.For) else set()
        )
        self.test_names: Set[str] = (
            _load_names(loop.test) if isinstance(loop, ast.While) else set()
        )
        self.reads: Dict[str, List[Tuple[int, int]]] = {}   # name -> (line, stmt)
        self.writes: Dict[str, List[_Write]] = {}
        self.container_events: List[_ContainerEvent] = []
        self.attr_stores: List[Tuple[int, ast.expr, Optional[str]]] = []
        self.assignments: List[Tuple[Set[str], Set[str]]] = []
        self.comp_targets: Set[str] = set()
        self.append_receivers: Dict[str, int] = {}  # list name -> append count
        self.name_loads: Dict[str, int] = {}        # name -> total Load count
        self.has_yield = False
        self.yield_line = 0
        self._stmt_id = 0
        self._written_this_walk: Set[str] = set(self.loop_targets)
        if isinstance(loop, ast.While):
            self._expr(loop.test, self._next_stmt())
        for stmt in _walk_stmts(loop.body):
            self._stmt(stmt)

    # -- events ------------------------------------------------------------

    def _next_stmt(self) -> int:
        self._stmt_id += 1
        return self._stmt_id

    def _read(self, name: str, line: int, stmt_id: int) -> None:
        self.name_loads[name] = self.name_loads.get(name, 0) + 1
        if name in self._written_this_walk:
            return
        self.reads.setdefault(name, []).append((line, stmt_id))

    def _write(self, name: str, line: int, op: Optional[str],
               value_names: Set[str], stmt_id: int) -> None:
        self.writes.setdefault(name, []).append(
            _Write(line, op, value_names, stmt_id)
        )
        self._written_this_walk.add(name)

    # -- expression walk ---------------------------------------------------

    def _expr(self, node: Optional[ast.expr], stmt_id: int) -> None:
        if node is None:
            return
        for child in _walk_expr(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                self._read(child.id, child.lineno, stmt_id)
            elif isinstance(child, (ast.Yield, ast.YieldFrom, ast.Await)):
                if not self.has_yield:
                    self.has_yield = True
                    self.yield_line = child.lineno
            elif isinstance(child, ast.comprehension):
                self.comp_targets |= _target_names(child.target)
            elif isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                receiver = child.func.value
                method = child.func.attr
                key = child.args[0] if child.args else None
                self.container_events.append(
                    _ContainerEvent(
                        child.lineno,
                        receiver,
                        method,
                        _load_names(key) if key is not None else None,
                    )
                )
                if method == "append" and isinstance(receiver, ast.Name):
                    self.append_receivers[receiver.id] = (
                        self.append_receivers.get(receiver.id, 0) + 1
                    )

    # -- statement walk ----------------------------------------------------

    def _fold_op(self, name: str, value: ast.expr) -> Tuple[Optional[str], Set[str]]:
        """Recognize ``name = name <op> e`` shapes; (op, other names)."""
        others = _load_names(value) - {name}
        if isinstance(value, ast.BinOp) and type(value.op) in _AUG_OPS:
            operands = {_expr_str(value.left), _expr_str(value.right)}
            if name in operands:
                return _AUG_OPS[type(value.op)], others
        if isinstance(value, ast.BoolOp):
            op = "or" if isinstance(value.op, ast.Or) else "and"
            for operand in value.values:
                if isinstance(operand, ast.Name) and operand.id == name:
                    return op, others
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("min", "max")
        ):
            for arg in value.args:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return value.func.id, others
        return "last", others

    def _assign(self, targets: Sequence[ast.expr], value: Optional[ast.expr],
                line: int, aug_op: Optional[str] = None) -> None:
        stmt_id = self._next_stmt()
        # AugAssign reads its target before writing it.
        if aug_op is not None and len(targets) == 1 and isinstance(
            targets[0], ast.Name
        ):
            self._read(targets[0].id, line, stmt_id)
        self._expr(value, stmt_id)
        value_names = _load_names(value)
        target_names: Set[str] = set()
        for target in targets:
            if isinstance(target, ast.Name):
                if aug_op is not None:
                    op: Optional[str] = aug_op
                    others = value_names - {target.id}
                elif value is not None and len(targets) == 1:
                    op, others = self._fold_op(target.id, value)
                else:
                    op, others = "last", value_names
                self._write(target.id, line, op, others, stmt_id)
                target_names.add(target.id)
            elif isinstance(target, ast.Tuple):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self._write(elt.id, line, "last", value_names, stmt_id)
                        target_names.add(elt.id)
                    else:
                        self._store_target(elt, stmt_id, aug_op)
            else:
                self._store_target(target, stmt_id, aug_op)
        if target_names:
            self.assignments.append((target_names, value_names))

    def _store_target(self, target: ast.expr, stmt_id: int,
                      aug_op: Optional[str]) -> None:
        if isinstance(target, ast.Subscript):
            self._expr(target.value, stmt_id)
            self._expr(target.slice, stmt_id)
            self.container_events.append(
                _ContainerEvent(
                    target.lineno, target.value, "[]=", _load_names(target.slice)
                )
            )
        elif isinstance(target, ast.Attribute):
            self._expr(target.value, stmt_id)
            self.attr_stores.append((target.lineno, target, aug_op))

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self._assign(
                [stmt.target], stmt.value, stmt.lineno,
                aug_op=_AUG_OPS.get(type(stmt.op)),
            )
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.For):
            stmt_id = self._next_stmt()
            self._expr(stmt.iter, stmt_id)
            iter_names = _load_names(stmt.iter)
            targets = _target_names(stmt.target)
            for name in targets:
                self._write(name, stmt.lineno, "iter", iter_names, stmt_id)
            self.assignments.append((targets, iter_names))
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, self._next_stmt())
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, self._next_stmt())
        elif isinstance(stmt, ast.Delete):
            stmt_id = self._next_stmt()
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._expr(target.value, stmt_id)
                    self._expr(target.slice, stmt_id)
                    self.container_events.append(
                        _ContainerEvent(
                            target.lineno, target.value, "del[]",
                            _load_names(target.slice),
                        )
                    )
        elif isinstance(stmt, (ast.Expr, ast.Return, ast.Raise, ast.Assert)):
            stmt_id = self._next_stmt()
            for name in ("value", "exc", "cause", "test", "msg"):
                self._expr(getattr(stmt, name, None), stmt_id)
        elif isinstance(stmt, ast.With):
            stmt_id = self._next_stmt()
            for item in stmt.items:
                self._expr(item.context_expr, stmt_id)
        # Try/If/With bodies arrive via _walk_stmts; nothing else reads names.


# --------------------------------------------------------------------------
# Dependence classification
# --------------------------------------------------------------------------


def _container_kind(ctx: TypeContext, receiver: ast.expr) -> Optional[str]:
    """The builtin container kind of ``receiver``'s type, if any."""
    ref = infer_type(ctx, receiver)
    kinds = ref.names & BUILTIN_CONTAINER_KINDS
    if len(kinds) == 1:
        return next(iter(kinds))
    return None


def _typing_env(program: Program, fn: FunctionInfo) -> TypeContext:
    """Flow-insensitive local typing: parameters plus body assignments."""
    module = program.modules[fn.module]
    cls = program.classes.get(fn.cls) if fn.cls else None
    env = _initial_env(program, module, cls, fn)
    ctx = TypeContext(program, module, cls, env)
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for stmt in _walk_stmts(node.body):
        if isinstance(stmt, ast.Assign) and stmt.targets:
            value_type = infer_type(ctx, stmt.value)
            for target in stmt.targets:
                _bind_target(ctx, target, value_type)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            _bind_target(ctx, stmt.target, infer_type(ctx, stmt.value))
        elif isinstance(stmt, ast.For):
            _bind_target(ctx, stmt.target, _elem_of(infer_type(ctx, stmt.iter)))
    return ctx


def _fresh_lists(fn: FunctionInfo, before_line: int) -> Set[str]:
    """Names bound to a fresh list literal/ctor before ``before_line``."""
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    fresh: Set[str] = set()
    for stmt in _walk_stmts(node.body):
        if stmt.lineno >= before_line:
            continue
        if isinstance(stmt, ast.Assign):
            targets: Sequence[ast.expr] = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        value = stmt.value
        is_list = isinstance(value, ast.List) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "list"
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if is_list:
                    fresh.add(target.id)
                else:
                    fresh.discard(target.id)
    return fresh


def _loads_after(fn: FunctionInfo, line: int) -> Dict[str, int]:
    """First Load line of each name read after ``line`` in the function."""
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    out: Dict[str, int] = {}
    for stmt in _walk_stmts(node.body):
        for child in ast.walk(stmt):
            if (
                isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)
                and child.lineno > line
            ):
                previous = out.get(child.id)
                if previous is None or child.lineno < previous:
                    out[child.id] = child.lineno
    return out


def _per_iteration_names(scan: _LoopScan, carried: Set[str]) -> Set[str]:
    """Names rebound from per-iteration values each time around the loop."""
    per_iter = set(scan.loop_targets)
    for _ in range(2):
        for targets, value_names in scan.assignments:
            if (
                value_names & per_iter
                and not value_names & carried
                and not targets & carried
            ):
                per_iter |= targets
    return per_iter


def _scalar_deps(scan: _LoopScan, live_after: Dict[str, int]) -> List[CarriedDep]:
    deps: List[CarriedDep] = []
    excluded = scan.loop_targets | scan.comp_targets
    upward = {
        name: sites[0]
        for name, sites in scan.reads.items()
        if name in scan.writes and name not in excluded
    }
    carried = set(upward)
    for name in sorted(carried):
        first_read_line, _ = upward[name]
        writes = scan.writes[name]
        write_lines = {w.stmt_id for w in writes}
        ops = {w.op for w in writes}
        if name in scan.test_names:
            deps.append(
                CarriedDep(
                    name, "control", None, writes[0].line,
                    read_line=scan.loop.lineno,
                    detail="read by the loop condition; the trip count depends"
                           " on earlier iterations",
                )
            )
            continue
        external_reads = [
            (line, sid)
            for line, sid in scan.reads.get(name, [])
            if sid not in write_lines
        ]
        cross = set().union(*(w.value_names for w in writes)) & (carried - {name})
        op = ops.pop() if len(ops) == 1 else None
        if op in COMMUTATIVE_OPS and not external_reads and not cross:
            deps.append(
                CarriedDep(name, "fold", op, writes[0].line,
                           read_line=first_read_line)
            )
        elif op == "last" and not external_reads:
            deps.append(
                CarriedDep(
                    name, "recurrence", None, writes[0].line,
                    read_line=first_read_line,
                    detail="overwritten from a value that reads its previous"
                           " iteration",
                )
            )
        else:
            detail = "carried value is read outside its own fold"
            if cross:
                detail = (
                    "fold term reads carried variable(s) "
                    + ", ".join(sorted(cross))
                )
            deps.append(
                CarriedDep(
                    name, "recurrence", op if op in COMMUTATIVE_OPS else None,
                    writes[0].line,
                    read_line=(external_reads[0][0] if external_reads
                               else first_read_line),
                    detail=detail,
                )
            )
    # Last-writer-wins outputs: written every iteration, never read inside
    # the loop, but consumed after it — the surviving value depends on
    # which iteration ran last.
    for name in sorted(set(scan.writes) - carried - excluded):
        after = live_after.get(name)
        if after is None:
            continue
        writes = scan.writes[name]
        if all(w.op == "iter" for w in writes):
            continue
        deps.append(
            CarriedDep(
                name, "output", "last", writes[-1].line, read_line=after,
                detail="last-writer-wins value read after the loop",
            )
        )
    return deps


def _container_deps(scan: _LoopScan, ctx: TypeContext, per_iter: Set[str],
                    gather: Set[str]) -> List[CarriedDep]:
    deps: List[CarriedDep] = []
    seen: Set[Tuple[str, int]] = set()

    def add(name: str, line: int, detail: str, op: Optional[str] = None) -> None:
        key = (name, line)
        if key not in seen:
            seen.add(key)
            deps.append(CarriedDep(name, "container", op, line, detail=detail))

    for event in scan.container_events:
        receiver_names = _load_names(event.receiver)
        if receiver_names & per_iter:
            continue  # mutating a per-iteration object is iteration-local
        name = _expr_str(event.receiver, 40)
        if event.method in ("[]=", "del[]"):
            if event.key_names and event.key_names & per_iter:
                continue  # keyed scatter: distinct slot per iteration
            add(name, event.line,
                "subscript key does not vary with the loop iteration")
            continue
        kind = _container_kind(ctx, event.receiver)
        if kind is None:
            continue  # program-class calls are handled via call edges
        table = CONTAINER_METHOD_TABLES.get(kind)
        if not isinstance(table, dict):
            continue  # all-pure kinds carry nothing
        if table.get(event.method, "mutate") == "pure":
            continue
        if kind in ("set", "frozenset") and event.method in _COMMUTING_MUTATORS:
            continue
        if event.method == "append" and isinstance(event.receiver, ast.Name):
            receiver = event.receiver.id
            if (
                receiver in gather
                and scan.name_loads.get(receiver, 0)
                == scan.append_receivers.get(receiver, 0)
            ):
                continue  # positional gather into a fresh local list
            add(receiver, event.line,
                "append to a shared container is an ordered fold", op="append")
            continue
        if event.method in _KEYED_MUTATORS:
            if event.key_names and event.key_names & per_iter:
                continue
            add(name, event.line,
                f".{event.method}() key does not vary with the loop iteration")
            continue
        add(name, event.line,
            f".{event.method}() mutates the container without a per-iteration"
            " key")
    for line, target, aug_op in scan.attr_stores:
        base_names = _load_names(target.value)
        if base_names & per_iter:
            continue
        deps.append(
            CarriedDep(
                _expr_str(target, 40), "state", aug_op or "last", line,
                detail="attribute store on state shared across iterations",
            )
        )
    return deps


def _callee_deps(program: Program, fn: FunctionInfo, certified: Set[str],
                 first: int, last: int) -> Tuple[List[CarriedDep], List[str], List[str]]:
    deps: List[CarriedDep] = []
    calls: List[str] = []
    kernel_calls: List[str] = []
    seen: Set[Tuple[str, str]] = set()
    for edge in fn.calls:
        if not first <= edge.line <= last:
            continue
        callee = program.functions.get(edge.callee)
        if callee is None:
            continue
        if edge.callee not in calls:
            calls.append(edge.callee)
        if edge.callee in certified:
            if edge.callee not in kernel_calls:
                kernel_calls.append(edge.callee)
            continue  # certified kernels are the declared-reorderable unit
        effects = callee.effects
        for effect in EVENT_EFFECTS + (RNG,):
            if effect in effects and (effect, edge.callee) not in seen:
                seen.add((effect, edge.callee))
                deps.append(
                    CarriedDep(
                        effect, "effect", None, edge.line,
                        via=tuple(witness_chain(program, edge.callee, effect)),
                        detail=f"{short_name(edge.callee)} couples the iteration to"
                               f" the {effect.lower().replace('_', ' ')} stream",
                    )
                )
        for effect in (MUTATES_STATE, PERSISTS):
            if effect in effects and ("callee", edge.callee) not in seen:
                seen.add(("callee", edge.callee))
                deps.append(
                    CarriedDep(
                        short_name(edge.callee), "callee", None, edge.line,
                        via=tuple(witness_chain(program, edge.callee, effect)),
                        detail="mutates shared state and is not a certified"
                               " kernel",
                    )
                )
                break
    for line, description in fn.unresolved:
        if first <= line <= last:
            deps.append(
                CarriedDep(
                    description, "unresolved", None, line,
                    detail="call target not resolved; independence cannot be"
                           " proven",
                )
            )
    return deps, calls, kernel_calls


def classify(carried: Sequence[CarriedDep]) -> Tuple[str, Tuple[str, ...]]:
    """(classification, fold ops) of a loop from its carried deps."""
    if not carried:
        return VECTORIZABLE, ()
    ops: Set[str] = set()
    for dep in carried:
        if dep.kind == "fold" and dep.op in COMMUTATIVE_OPS:
            ops.add(dep.op)
            continue
        return ORDER_DEPENDENT, ()
    return REDUCTION, tuple(sorted(ops))


def analyze_function(program: Program, fn: FunctionInfo, path: str,
                     certified: Set[str]) -> List[LoopFacts]:
    """Classify every loop of ``fn``."""
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    loops = collect_loops(node.body)
    if not loops:
        return []
    ctx = _typing_env(program, fn)
    out: List[LoopFacts] = []
    for loop in loops:
        end_line = getattr(loop, "end_lineno", loop.lineno) or loop.lineno
        scan = _LoopScan(loop)
        live_after = _loads_after(fn, end_line)
        deps = _scalar_deps(scan, live_after)
        carried_names = {d.name for d in deps if d.kind != "output"}
        per_iter = _per_iteration_names(scan, carried_names)
        gather = _fresh_lists(fn, loop.lineno)
        deps += _container_deps(scan, ctx, per_iter, gather)
        callee_deps, calls, kernel_calls = _callee_deps(
            program, fn, certified, loop.lineno, end_line
        )
        deps += callee_deps
        if scan.has_yield:
            deps.append(
                CarriedDep(
                    YIELDS, "effect", None, scan.yield_line,
                    detail="yield suspends the iteration into the event loop",
                )
            )
        classification, ops = classify(deps)
        if isinstance(loop, ast.For):
            kind, iterates = "for", _expr_str(loop.iter)
        else:
            kind, iterates = "while", _expr_str(loop.test)
        out.append(
            LoopFacts(
                function=fn.qualname,
                path=path,
                line=loop.lineno,
                col=loop.col_offset,
                end_line=end_line,
                kind=kind,
                iterates=iterates,
                carried=deps,
                calls=calls,
                kernel_calls=kernel_calls,
                classification=classification,
                reduction_ops=ops,
            )
        )
    return out


def build_batch_analysis(program: Program, certified: Set[str],
                         in_scope) -> BatchAnalysis:
    """Classify every loop of every in-scope function.

    ``in_scope`` is a ``path -> bool`` predicate (the simbatch hot-path
    scope, wider than simeffect's sim scope).
    """
    analysis = BatchAnalysis(program=program, certified=certified)
    for qualname in sorted(program.functions):
        fn = program.functions[qualname]
        if fn.seeded:
            continue
        path = program.paths.get(fn.module)
        if path is None or not in_scope(path):
            continue
        contract = parse_contract(fn)
        if contract is not None:
            analysis.contracts[qualname] = contract
        loops = analyze_function(program, fn, path, certified)
        if loops:
            analysis.loops.extend(loops)
            analysis.loops_by_function[qualname] = loops
    analysis.loops.sort(key=lambda loop: (loop.path, loop.line))
    return analysis
